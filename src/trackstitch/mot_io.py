"""Reading and writing MOTChallenge-style track files.

A track file is plain text, one detection per line:

    frame,id,x,y,w,h,conf,x3d,y3d,z3d

(x, y) is the top-left corner in pixels, (w, h) the box size. Fields past
``conf`` are ignored on input and written as ``-1``; non-finite values are
rejected. Sequence metadata comes from a seqinfo-style ``key=value`` file
(``frameRate``, ``imWidth``, ``imHeight``, ``seqLength``).
"""

from __future__ import annotations

import io
import re
from contextlib import contextmanager
from dataclasses import dataclass
from math import isfinite, sqrt
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO


class ParseError(ValueError):
    """A track or seqinfo file could not be parsed; message carries the line number."""


@dataclass(frozen=True, slots=True)
class Detection:
    """One bounding-box observation at one frame, with an identity label."""

    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float = -1.0

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if self.track_id < 1:
            raise ValueError(f"track_id must be >= 1, got {self.track_id}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive, got w={self.w}, h={self.h}")
        if not (
            isfinite(self.x) and isfinite(self.y) and isfinite(self.w) and isfinite(self.h) and isfinite(self.conf)
        ):
            raise ValueError(
                f"box and conf must be finite, got x={self.x}, y={self.y}, w={self.w}, h={self.h}, conf={self.conf}"
            )

    def relabeled(self, track_id: int) -> Detection:
        """The same observation under another identity label."""
        return Detection(self.frame, track_id, self.x, self.y, self.w, self.h, self.conf)

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class SequenceMeta:
    """Frame rate and image geometry of one video sequence."""

    fps: float
    img_width: int
    img_height: int
    num_frames: int

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.img_width < 1 or self.img_height < 1:
            raise ValueError("image dimensions must be positive")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be positive, got {self.num_frames}")

    @property
    def diagonal(self) -> float:
        """Image diagonal in pixels."""
        return sqrt(self.img_width**2 + self.img_height**2)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)  # tolerate "3.0"; reject "3.5"
        if not value.is_integer():
            raise ValueError(f"not an integer: {text!r}")
        return int(value)


def _parse_fields(line: str, lineno: int) -> Detection:
    """Parse one line from its stripped fields; raises the line's ParseError."""
    fields = [f.strip() for f in line.split(",")]
    try:
        return Detection(_parse_int(fields[0]), _parse_int(fields[1]), *map(float, fields[2:7]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_tracks(stream: TextIO | str) -> list[Detection]:
    """Parse a MOTChallenge track file into detections, in file order.

    Accepts an open text stream or the file content as a string. Raises
    :class:`ParseError` naming the offending line on malformed input, on a
    non-positive box size or on a non-finite value.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    detections = []
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split(",")
        if len(fields) < 7:
            if not raw.strip():
                continue
            raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
        # int and float ignore surrounding whitespace themselves; ids such as
        # "3.0" and every error go through the stripped fields
        try:
            det = Detection(
                int(fields[0]), int(fields[1]),
                float(fields[2]), float(fields[3]), float(fields[4]), float(fields[5]), float(fields[6]),
            )
        except ValueError:
            det = _parse_fields(raw, lineno)
        detections.append(det)
    return detections


# A float's repr ends in ".0" exactly when it is integral and below 1e16 in
# magnitude (repr switches to exponent notation there), and every value field
# is followed by a comma. The format drops that ".0" below 1e15 only, so the
# substitution skips a ".0" after 16 digits; "-0.0" prints as "0", so its sign
# goes first.
_POINT_ZERO = re.compile(r"\.0,(?<!\d{16}\.0,)")


def write_tracks(detections: Iterable[Detection], stream: TextIO | None = None) -> str:
    """Write detections in MOTChallenge format, sorted by (frame, id).

    Integral values print without a decimal point below 1e15 in magnitude;
    every other value prints as its shortest round-trip repr. Fields are
    formatted with ``format(v, "")``, which equals ``repr(v)`` for Python
    numbers and prints numpy scalars as plain numbers. Returns the
    text; also writes it to ``stream`` when given.
    ``parse_tracks(write_tracks(D))`` reproduces D up to ordering.
    """
    text = "".join([
        f"{d.frame},{d.track_id},{d.x},{d.y},{d.w},{d.h},{d.conf},-1,-1,-1\n"
        for d in sorted(detections, key=attrgetter("frame", "track_id"))
    ])
    text = _POINT_ZERO.sub(",", text.replace("-0.0,", "0.0,"))
    if stream is not None:
        stream.write(text)
    return text


def load_tracks(path: str | Path) -> list[Detection]:
    with open(path, encoding="utf-8") as f:
        return parse_tracks(f)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for text writing so that it appears only once fully written.

    The block writes to a sibling ``.tmp`` file, which is renamed into place
    when the block completes and removed when it raises.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tracks(detections: Iterable[Detection], path: str | Path) -> None:
    """Write detections to ``path`` via :func:`atomic_writer`."""
    with atomic_writer(path) as f:
        write_tracks(detections, f)


_SEQINFO_KEYS = {"frameRate": "fps", "imWidth": "img_width", "imHeight": "img_height", "seqLength": "num_frames"}


def read_seqinfo(path: str | Path) -> SequenceMeta:
    """Read sequence metadata from a seqinfo-style key=value file.

    Section headers (``[Sequence]``), comments and unknown keys are ignored;
    ``frameRate``, ``imWidth``, ``imHeight`` and ``seqLength`` are required.
    """
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith(("[", "#", ";")):
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in _SEQINFO_KEYS:
                try:
                    values[_SEQINFO_KEYS[key]] = float(value.strip())
                except ValueError:
                    raise ParseError(f"line {lineno}: bad value for {key}: {value.strip()!r}") from None
    missing = [k for k, v in _SEQINFO_KEYS.items() if v not in values]
    if missing:
        raise ParseError(f"seqinfo file {path} is missing keys: {', '.join(missing)}")
    return SequenceMeta(
        fps=values["fps"],
        img_width=int(values["img_width"]),
        img_height=int(values["img_height"]),
        num_frames=int(values["num_frames"]),
    )


def _fmt(value: float) -> str:
    # the rule write_tracks applies to a whole file at once
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_seqinfo(meta: SequenceMeta, path: str | Path, name: str = "synthetic") -> None:
    text = (
        "[Sequence]\n"
        f"name={name}\n"
        f"frameRate={_fmt(meta.fps)}\n"
        f"seqLength={meta.num_frames}\n"
        f"imWidth={meta.img_width}\n"
        f"imHeight={meta.img_height}\n"
    )
    with atomic_writer(path) as f:
        f.write(text)
