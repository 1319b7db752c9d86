"""Reading and writing MOTChallenge-style track files.

A track file is plain text, one detection per line:

    frame,id,x,y,w,h,conf,x3d,y3d,z3d

(x, y) is the top-left corner in pixels, (w, h) the box size. Fields past
``conf`` are ignored on input and written as ``-1``; non-finite values are
rejected. A parsed file is a :class:`DetectionTable`, one numpy column per
field. Sequence metadata comes from a seqinfo-style ``key=value`` file
(``frameRate``, ``imWidth``, ``imHeight``, ``seqLength``).
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from math import isfinite, sqrt
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


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

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


_FIELDS = ("frame", "track_id", "x", "y", "w", "h", "conf")
_DTYPES = (np.int64, np.int64, np.float64, np.float64, np.float64, np.float64, np.float64)


class DetectionTable(Sequence[Detection]):
    """Detections as seven numpy columns, one row per detection.

    ``frame`` and ``track_id`` are int64 columns; ``x``, ``y``, ``w``, ``h``
    and ``conf`` are float64 columns. All columns are read-only. The table is a
    read-only sequence of :class:`Detection`: indexing or iterating builds a
    Detection only when it is read, and a slice is a table over views of the
    same columns. Like a list, a table compares equal to a list or tuple of
    the same detections in the same order, and ``+`` concatenates.

    The constructor copies its arguments and checks every row the way
    :class:`Detection` does.
    """

    __slots__ = _FIELDS

    def __init__(self, frame, track_id, x, y, w, h, conf):
        columns = [np.array(c, dtype=t).reshape(-1) for c, t in zip((frame, track_id, x, y, w, h, conf), _DTYPES)]
        if len({len(c) for c in columns}) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        frame, track_id, x, y, w, h, conf = columns
        bad = (frame < 1) | (track_id < 1) | ~(w > 0) | ~(h > 0) | ~np.isfinite(np.stack(columns[2:])).all(axis=0)
        if bad.any():
            row = int(np.argmax(bad))
            try:
                Detection(*(c[row].item() for c in columns))
            except ValueError as exc:  # the message of the row's own check
                raise ValueError(f"row {row}: {exc}") from None
        self._assign(columns)

    def _assign(self, columns) -> None:
        for name, column in zip(_FIELDS, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def _wrap(cls, columns) -> DetectionTable:
        """A table over columns known to be valid and of the right dtypes: no copy, no checks."""
        table = object.__new__(cls)
        table._assign(columns)
        return table

    @classmethod
    def of(cls, detections: Iterable[Detection]) -> DetectionTable:
        """``detections`` itself if it is a table, else a table of its rows in order."""
        if isinstance(detections, DetectionTable):
            return detections
        rows = list(detections)
        return cls._wrap([np.array(list(map(attrgetter(n), rows)), dtype=t) for n, t in zip(_FIELDS, _DTYPES)])

    @classmethod
    def concat(cls, tables: Iterable[DetectionTable]) -> DetectionTable:
        """The rows of ``tables``, one after the other."""
        tables = list(tables)
        if not tables:
            return cls.of(())
        return cls._wrap([np.concatenate(columns) for columns in zip(*(t.columns for t in tables))])

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns in field order."""
        return (self.frame, self.track_id, self.x, self.y, self.w, self.h, self.conf)

    @property
    def boxes(self) -> np.ndarray:
        """An (N, 4) array of (x, y, w, h) rows."""
        return np.stack((self.x, self.y, self.w, self.h), axis=1)

    def take(self, index) -> DetectionTable:
        """The rows selected by an integer array or boolean mask, in its order."""
        return DetectionTable._wrap([c[index] for c in self.columns])

    def relabeled(self, track_id) -> DetectionTable:
        """The same rows under other identity labels: one id for every row, or an array with one per row."""
        ids = np.empty(len(self), dtype=np.int64)
        ids[:] = track_id
        if len(ids) and ids.min() < 1:
            raise ValueError(f"track_id must be >= 1, got {ids.min()}")
        return DetectionTable._wrap([self.frame, ids, self.x, self.y, self.w, self.h, self.conf])

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DetectionTable._wrap([c[index] for c in self.columns])
        return Detection(*(c[index].item() for c in self.columns))

    def __iter__(self) -> Iterator[Detection]:
        return map(Detection, *(c.tolist() for c in self.columns))

    def __add__(self, other: Iterable[Detection]) -> DetectionTable:
        """The rows of this table followed by those of ``other``, a table or detections."""
        return DetectionTable.concat([self, DetectionTable.of(other)])

    def __eq__(self, other) -> bool:
        if isinstance(other, DetectionTable):
            return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"DetectionTable({list(self)!r})"


@dataclass(frozen=True)
class SequenceMeta:
    """Frame rate and image geometry of one video sequence."""

    fps: float
    img_width: int
    img_height: int
    num_frames: int

    def __post_init__(self):
        if not (isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be finite and positive, got {self.fps}")
        for name in ("img_width", "img_height", "num_frames"):
            value = getattr(self, name)
            if not (value >= 1 and float(value).is_integer()):  # NaN fails the first test, inf the second
                raise ValueError(f"{name} must be a positive integer, got {value}")

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


def _parse_fields(fields: list[str], lineno: int) -> Detection:
    """Parse one line from its stripped fields; raises the line's ParseError."""
    try:
        return Detection(_parse_int(fields[0]), _parse_int(fields[1]), *map(float, fields[2:7]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _parse_lines(text: str) -> Iterator[Detection]:
    """The detections of ``text`` line by line; raises the first bad line's ParseError."""
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) < 7:
            if not raw.strip():
                continue
            raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
        det = _parse_fields(fields, lineno)
        if max(det.frame, det.track_id) >= 2**63:
            raise ParseError(f"line {lineno}: frame and track_id must be below 2**63, got {det.frame}, {det.track_id}")
        yield det


def _read_columns(text: str) -> DetectionTable | None:
    """All of ``text`` in one ``np.loadtxt`` pass, or None where only the line parser can tell what it holds.

    ``np.loadtxt`` converts a number exactly as ``float()`` does, but rejects
    some spellings ``float()`` accepts (``1_0``) and every malformed line; frames
    and ids are read as floats and must be integral and below 2**53, where a
    float64 still holds every integer. A line that breaks any rule sends the
    whole file to the line parser, which accepts or names it.
    """
    if not text.strip():
        return DetectionTable.of(())  # loadtxt warns on empty input
    try:
        values = np.loadtxt(text.split("\n"), delimiter=",", usecols=range(7), comments=None, ndmin=2)
    except ValueError:
        return None
    ids = values[:, :2]
    if not (np.isfinite(values).all() and (ids == np.floor(ids)).all() and (ids < 2**53).all()):
        return None
    try:
        return DetectionTable(*ids.T.astype(np.int64), *values[:, 2:].T)
    except ValueError:
        return None


def parse_tracks(stream: TextIO | str) -> DetectionTable:
    """Parse a MOTChallenge track file into a detection table, rows in file order.

    Accepts an open text stream or the file content as a string. Raises
    :class:`ParseError` naming the offending line on malformed input, on a
    non-positive box size or on a non-finite value.
    """
    text = stream if isinstance(stream, str) else stream.read()
    table = _read_columns(text)
    return table if table is not None else DetectionTable.of(_parse_lines(text))


# what follows each of the seven columns on a line
_SEPARATORS = (",",) * 6 + (",-1,-1,-1\n",)


def _column_tokens(column: np.ndarray, sep: str, whole_as_int: bool = True) -> list[str]:
    """Every value of ``column`` as printed, then ``sep``; each distinct value is formatted once, by repr alone unless ``whole_as_int``."""
    values, inverse = np.unique(column, return_inverse=True)  # -0.0 and 0.0 fall together and both print 0
    text = list(map(repr, values.tolist()))
    if whole_as_int and column.dtype.kind == "f":
        whole = np.flatnonzero((values == np.trunc(values)) & (np.abs(values) < 1e15))
        for k, value in zip(whole.tolist(), values[whole].astype(np.int64).tolist()):
            text[k] = repr(value)
    return np.array([t + sep for t in text], dtype=object)[inverse].tolist()


def write_tracks(detections: Iterable[Detection], stream: TextIO | None = None) -> str:
    """Write detections in MOTChallenge format, sorted by (frame, id).

    The detections are written as the columns of ``DetectionTable.of``, so
    every value field prints its float64 value by one rule: an integral value
    below 1e15 in magnitude prints without a decimal point (``-0.0`` as
    ``0``), any other value as its shortest round-trip repr. Each distinct
    value of a column is formatted once, and the tokens are gathered back by
    row. Returns the text; also writes it to ``stream`` when given.
    ``parse_tracks(write_tracks(D))`` reproduces D up to ordering.
    """
    table = DetectionTable.of(detections)
    order = np.lexsort((table.track_id, table.frame))
    tokens: list[str | None] = [None] * (len(_FIELDS) * len(table))
    for k, (column, sep) in enumerate(zip(table.columns, _SEPARATORS)):
        tokens[k :: len(_FIELDS)] = _column_tokens(column[order], sep)
    text = "".join(tokens)
    if stream is not None:
        stream.write(text)
    return text


def load_tracks(path: str | Path) -> DetectionTable:
    """Parse the MOTChallenge track file at ``path`` (see :func:`parse_tracks`); a leading UTF-8 byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as f:
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


def _parse_fps(text: str) -> float:
    value = float(text)
    if not (isfinite(value) and value > 0):
        raise ValueError(f"not a finite positive rate: {text!r}")
    return value


# seqinfo key -> (SequenceMeta field, parser of its value)
_SEQINFO_KEYS = {
    "frameRate": ("fps", _parse_fps),
    "imWidth": ("img_width", _parse_int),
    "imHeight": ("img_height", _parse_int),
    "seqLength": ("num_frames", _parse_int),
}


def read_seqinfo(path: str | Path) -> SequenceMeta:
    """Read sequence metadata from a seqinfo-style key=value file.

    Section headers (``[Sequence]``), comments and unknown keys are ignored;
    ``frameRate``, ``imWidth``, ``imHeight`` and ``seqLength`` are required;
    the frame rate must be finite and positive, and the last three must be
    integers (``1920.0`` is one). A leading UTF-8 byte-order mark is dropped.
    Raises :class:`ParseError` naming the line of a bad value.
    """
    values: dict[str, float | int] = {}
    with open(path, encoding="utf-8-sig") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith(("[", "#", ";")):
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in _SEQINFO_KEYS:
                field, parse = _SEQINFO_KEYS[key]
                try:
                    values[field] = parse(value.strip())
                except ValueError:  # also a non-finite or fractional integer, or a rate <= 0
                    raise ParseError(f"line {lineno}: bad value for {key}: {value.strip()!r}") from None
    missing = [k for k, (field, _) in _SEQINFO_KEYS.items() if field not in values]
    if missing:
        raise ParseError(f"seqinfo file {path} is missing keys: {', '.join(missing)}")
    return SequenceMeta(**values)


def write_seqinfo(meta: SequenceMeta, path: str | Path, name: str = "synthetic") -> None:
    (frame_rate,) = _column_tokens(np.array([meta.fps], dtype=np.float64), "")  # the number rule of write_tracks
    text = (
        "[Sequence]\n"
        f"name={name}\n"
        f"frameRate={frame_rate}\n"
        f"seqLength={meta.num_frames}\n"
        f"imWidth={meta.img_width}\n"
        f"imHeight={meta.img_height}\n"
    )
    with atomic_writer(path) as f:
        f.write(text)
