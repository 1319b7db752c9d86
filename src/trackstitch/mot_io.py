"""Reading and writing MOTChallenge-style track files.

A track file is plain text, one detection per line:

    frame,id,x,y,w,h,conf,x3d,y3d,z3d

(x, y) is the top-left corner in pixels, (w, h) the box size. Fields past
``conf`` are ignored on input and written as ``-1``. Sequence metadata comes
from a seqinfo-style ``key=value`` file (``frameRate``, ``imWidth``,
``imHeight``, ``seqLength``).
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO


class ParseError(ValueError):
    """A track or seqinfo file could not be parsed; message carries the line number."""


@dataclass(frozen=True)
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
        return math.sqrt(self.img_width**2 + self.img_height**2)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)  # tolerate "3.0"; reject "3.5"
        if not value.is_integer():
            raise ValueError(f"not an integer: {text!r}")
        return int(value)


def parse_tracks(stream: TextIO | str) -> list[Detection]:
    """Parse a MOTChallenge track file into detections, in file order.

    Accepts an open text stream or the file content as a string. Raises
    :class:`ParseError` naming the offending line on malformed input or on a
    non-positive box size.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    detections = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 7:
            raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
        try:
            det = Detection(_parse_int(fields[0]), _parse_int(fields[1]), *map(float, fields[2:7]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        detections.append(det)
    return detections


def _fmt(value: float) -> str:
    # integral values print without a decimal point; repr round-trips the rest
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_tracks(detections: Iterable[Detection], stream: TextIO | None = None) -> str:
    """Write detections in MOTChallenge format, sorted by (frame, id).

    Returns the text; also writes it to ``stream`` when given.
    ``parse_tracks(write_tracks(D))`` reproduces D up to ordering.
    """
    lines = []
    for d in sorted(detections, key=lambda d: (d.frame, d.track_id)):
        lines.append(
            f"{d.frame},{d.track_id},{_fmt(d.x)},{_fmt(d.y)},"
            f"{_fmt(d.w)},{_fmt(d.h)},{_fmt(d.conf)},-1,-1,-1"
        )
    text = "\n".join(lines) + ("\n" if lines else "")
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
