"""Reading and writing MOTChallenge-style track files, and reading settings files.

A track file is plain text, one detection per line:

    frame,id,x,y,w,h,conf,x3d,y3d,z3d

(x, y) is the top-left corner in pixels, (w, h) the box size. Fields past
``conf`` are ignored on input and written as ``-1``; non-finite values, and
boxes without extent in float arithmetic (see :class:`Detection`), are
rejected. A parsed file is a :class:`DetectionTable`, one numpy column per
field. Seqinfo files, pipeline configs and scenario files share one grammar,
read by :func:`read_kv`, and the ``check_*`` helpers hold each setting's rule.

Track text is read in numpy, in one pass of line-aligned chunks of about
256 KiB: the text is encoded as UTF-8 (a lone surrogate as its three
bytes), each ``\\r\\n`` becomes ``\\n``, and every line of at least seven
fields gives one row. The reader reads a field
``-?D{1,16}(.D{1,22})?`` of at most 19 digits, leading zeros not counted
where the whole part is zero, with integer arithmetic. That covers every
number :func:`write_tracks` prints from digits: integral values below 1e15
and others from 1e-4 up to 1e15 at full precision. It reads any other
field, and a rounding next to a power of two that the integer arithmetic
leaves open, with ``float()`` on that field alone: exponents, ``+`` signs,
spaces, non-ASCII characters, ``10.``, ``.25``, ``1_0``, longer numbers.
Every field gets the value the line parser gives it; one ``float()``
rejects reads as NaN. Empty lines are skipped. The line parser takes the
other lines one at a time, in file order: a line of fewer than seven fields
that holds a byte, and a row whose frame or id is not an integer below
2**53, or that :class:`Detection` rejects. It skips a blank line, names a
bad one, and gives any other row its exact frame and id.
"""

from __future__ import annotations

import codecs
import functools
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from math import inf, isfinite, nan, sqrt
from operator import attrgetter
from pathlib import Path
from sys import float_info
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


class ParseError(ValueError):
    """A track or settings file could not be parsed; message carries the line number."""


def check_integer(value, name: str) -> None:
    """Raise ValueError, naming the setting ``name``, unless ``value`` is an integer (numpy's included) other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")


def check_id(value, name: str) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an id: a :func:`check_integer` integer in [1, 2**63)."""
    if type(value) is not int:  # a plain int passes the type check; it is the common case, and that check is slow
        check_integer(value, name)
    if not 1 <= int(value) < 2**63:  # int(): numpy 1's int64 would compare with 2**63 as a float
        raise ValueError(f"{name} must be in [1, 2**63), got {value}")


def check_count(value, name: str, minimum: int) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is a :func:`check_integer` integer of at least ``minimum`` (0 or 1)."""
    check_integer(value, name)
    if value < minimum:
        raise ValueError(f"{name} must be {('nonnegative', 'positive')[minimum]}, got {value}")


def check_number(value, name: str) -> None:
    """Raise ValueError, naming the setting ``name``, unless ``value`` is a real number (numpy's included) other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value}")


def check_iou_threshold(value, name: str) -> None:
    """Raise ValueError, naming the setting ``name``, unless the IoU threshold ``value`` is a number in (0, 1]; NaN is not."""
    check_number(value, name)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def check_window(window: int, min_len: int, names: tuple[str, str] = ("window", "min_len")) -> None:
    """Raise ValueError, naming both values by ``names``, unless both are integers and ``2 <= window < min_len`` (see :class:`~trackstitch.tracklets.Tracklets`)."""
    w, m = names
    for name, value in zip(names, (window, min_len)):
        check_integer(value, name)
    if not 2 <= window < min_len:
        raise ValueError(f"{w} must satisfy 2 <= {w} < {m}, got {w}={window}, {m}={min_len}")


def check_flag(value, name: str) -> None:
    """Raise ValueError, naming the setting ``name``, unless ``value`` is a bool (numpy's included)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {value!r}")


@dataclass(frozen=True, slots=True)
class Detection:
    """One bounding-box observation at one frame, with an identity label.

    ``frame`` and ``track_id`` must be ids (see :func:`check_id`), so that an
    int64 column holds them. The ``float()`` of each box value must meet
    ``_BOX_RULE``; the message names the first rule the box breaks.
    """

    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float = -1.0

    def __post_init__(self):
        check_id(self.frame, "frame")
        check_id(self.track_id, "track_id")
        values = float(self.x), float(self.y), float(self.w), float(self.h), float(self.conf)
        for message, holds in _BOX_RULE:
            if not holds(*values):
                raise ValueError(message.format(x=self.x, y=self.y, w=self.w, h=self.h, conf=self.conf, area=values[2] * values[3]))

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


_FIELDS = ("frame", "track_id", "x", "y", "w", "h", "conf")
_DTYPES = (np.int64, np.int64, np.float64, np.float64, np.float64, np.float64, np.float64)

# The box rule, in the order Detection checks it: (message, predicate true of a box that meets the rule) pairs.
# A predicate uses only comparisons, arithmetic, abs and &, so it takes floats and float64 columns alike.
# The first reads "no size is <= 0", so that a NaN size passes it and reads "must be finite".
_BOX_RULE = (
    ("box size must be positive, got w={w}, h={h}", lambda x, y, w, h, conf: (w <= 0) + (h <= 0) == 0),
    ("box and conf must be finite, got x={x}, y={y}, w={w}, h={h}, conf={conf}",
     lambda x, y, w, h, conf: (abs(x) < inf) & (abs(y) < inf) & (abs(w) < inf) & (abs(h) < inf) & (abs(conf) < inf)),
    ("box has no extent in float arithmetic, got x={x}, y={y}, w={w}, h={h}", lambda x, y, w, h, conf: (x + w != x) & (y + h != y)),
    ("box area must be a normal finite float, got w={w}, h={h}, w*h={area}", lambda x, y, w, h, conf: (float_info.min <= w * h) & (w * h < inf)),
)


def _rejected(frame, track_id, x, y, w, h, conf) -> np.ndarray:
    """A mask of the rows, given as columns, that :class:`Detection` rejects: ids below 1, or a box that breaks ``_BOX_RULE``."""
    with np.errstate(all="ignore"):  # inf - inf, or an area that overflows, marks its row instead of warning
        return ~np.logical_and.reduce([frame >= 1, track_id >= 1, *(holds(x, y, w, h, conf) for _, holds in _BOX_RULE)])


def _checked_row(*values) -> Detection:
    """The Detection of a row of a table, which checked its rows when it was built: not checked again."""
    det = object.__new__(Detection)
    for name, value in zip(_FIELDS, values):
        object.__setattr__(det, name, value)
    return det


def _id_column(values, name: str) -> np.ndarray:
    """``values``, one id or an array of ids, as a new 1-d int64 column.

    Raises ValueError at the first value that :func:`check_id` rejects: ``row N:`` and its message.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        column = values.astype(np.int64).reshape(-1)  # a uint64 id of 2**63 or more wraps below 1
        if not len(column) or column.min() >= 1:
            return column
    column = np.asarray(values, dtype=object).reshape(-1)  # each value as given: a bool stays a bool, 1.5 stays 1.5
    for row, value in enumerate(column.tolist()):
        try:
            check_id(value, name)
        except ValueError as exc:
            raise ValueError(f"row {row}: {exc}") from None
    return column.astype(np.int64)


class DetectionTable(Sequence[Detection]):
    """Detections as seven numpy columns, one row per detection.

    ``frame`` and ``track_id`` are int64 columns; ``x``, ``y``, ``w``, ``h``
    and ``conf`` are float64 columns. All columns are read-only. The table is a
    read-only sequence of :class:`Detection`: indexing or iterating builds a Detection
    only when it is read, without checking the row again, and a slice is a table over
    views of the same columns. Like a list, a table compares equal to a list or tuple
    of the same detections in the same order, and ``+`` concatenates.

    The constructor copies its arguments and checks every row the way
    :class:`Detection` does, the ids before they become int64.
    """

    __slots__ = _FIELDS

    def __init__(self, frame, track_id, x, y, w, h, conf):
        columns = [_id_column(frame, "frame"), _id_column(track_id, "track_id")]
        columns += [np.array(c, dtype=np.float64).reshape(-1) for c in (x, y, w, h, conf)]
        if len({len(c) for c in columns}) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        bad = _rejected(*columns)
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

    def by_frame(self) -> DetectionTable:
        """The rows in (frame, id) order, rows of equal key in table order.

        A table already in strictly increasing (frame, id) order is returned
        as it is, after one O(N) check; any other takes one ``lexsort``.
        Repeated keys are kept (see :meth:`check_tracks`).
        """
        step = np.diff(self.frame)
        if ((step > 0) | ((step == 0) & (np.diff(self.track_id) > 0))).all():
            return self
        return self.take(np.lexsort((self.track_id, self.frame)))

    def check_tracks(self) -> None:
        """Raise ValueError where two adjacent rows of one id repeat a frame or go back in time.

        In a table grouped by id, or sorted by (frame, id), these are the
        consecutive rows of one track. One O(N) pass; the message names the
        first such pair.
        """
        same = self.track_id[1:] == self.track_id[:-1]
        back = np.flatnonzero(same & (self.frame[1:] <= self.frame[:-1]))
        if len(back):
            tid = self.track_id[back[0]].item()
            prev, frame = self.frame[back[0] : back[0] + 2].tolist()
            if frame == prev:
                raise ValueError(f"({tid},{frame}) duplicated: track {tid} has two detections in frame {frame}")
            raise ValueError(f"track {tid} goes back in time: frame {frame} follows frame {prev}")

    def relabeled(self, track_id) -> DetectionTable:
        """The same rows under other identity labels: one id for every row, or an array with one per row.

        Each id is checked as the constructor checks a ``track_id`` column.
        """
        ids = np.empty(len(self), dtype=np.int64)
        ids[:] = _id_column(track_id, "track_id")
        return DetectionTable._wrap([self.frame, ids, self.x, self.y, self.w, self.h, self.conf])

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DetectionTable._wrap([c[index] for c in self.columns])
        return _checked_row(*(c[index].item() for c in self.columns))

    def __iter__(self) -> Iterator[Detection]:
        return map(_checked_row, *(c.tolist() for c in self.columns))

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
        for name in ("fps", "img_width", "img_height", "num_frames"):
            _check_meta(name, getattr(self, name))
        try:
            diagonal = self.diagonal
        except OverflowError:  # a squared size too large for a float
            diagonal = inf
        if not isfinite(diagonal):
            raise ValueError(f"the image diagonal must be finite, got a {self.img_width} x {self.img_height} image")

    @property
    def diagonal(self) -> float:
        """Image diagonal in pixels."""
        return sqrt(self.img_width**2 + self.img_height**2)


def _check_meta(name: str, value) -> None:
    """Raise ValueError unless ``value`` suits the :class:`SequenceMeta` field ``name``.

    Every value must be a number other than a bool (numpy's included) and
    fit in a float (``float()`` overflows on an integer of 309 digits or
    more), ``fps`` must be finite and positive, and a size or frame count
    must be an integer in [1, ``float_info.max``] (``7.0`` is one).
    """
    check_number(value, name)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value}") from None
    if name == "fps":
        if not (isfinite(number) and number > 0):
            raise ValueError(f"fps must be finite and positive, got {value}")
    elif not (1 <= value <= float_info.max and number.is_integer()):  # NaN and inf fail here
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)  # tolerate "3.0"; reject "3.5"
        if not value.is_integer():
            raise ValueError(f"not an integer: {text!r}")
        return int(value)


def _parse_line(line: str, lineno: int) -> Detection | None:
    """The detection on one line of track text, None for a blank line; raises the line's ParseError."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) < 7:
        if not line.strip():
            return None
        raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
    try:
        return Detection(_parse_int(fields[0]), _parse_int(fields[1]), *map(float, fields[2:7]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _read_values(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
    """The first seven fields of each line of track text that has seven or more, as an (N, 7) float64 array, and where its lines are.

    Returns ``(values, starts, unread, buf)``. ``buf`` is the text as read:
    UTF-8, a lone surrogate as its three bytes, each ``\\r\\n`` as ``\\n``,
    with a newline at its end and bytes before its first line. ``starts[k]``
    is the offset in ``buf`` of the line of row k, and ``unread`` holds the
    offsets of the lines of fewer than seven fields that hold a byte, which
    give no row. Empty lines are skipped, and fields past the seventh are
    not read. Each value is the one ``float()`` gives for its field,
    stripped, or NaN where ``float()`` rejects it. The text is read in one
    pass of chunks (see :func:`_read_chunk`).
    """
    data = text.encode("utf-8", "surrogatepass")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    buf = b"".join((_PAD, data, b"\n"))  # a last line without a newline gets one; an extra empty line is skipped
    chunks = []
    lo = len(_PAD)
    while lo < len(buf):
        hi = buf.find(b"\n", lo + _CHUNK_BYTES) + 1 or len(buf)
        chunks.append(_read_chunk(buf, lo, hi))
        lo = hi
    values, starts, unread = map(np.concatenate, zip(*chunks))
    return values, starts, unread, buf


def parse_tracks(stream: TextIO | str) -> DetectionTable:
    """Parse a MOTChallenge track file into a detection table, rows in file order.

    Accepts an open text stream or the file content as a string. The text is
    read in numpy, in chunks (see the module docstring). The lines the reader
    cannot settle go one at a time, in file order, through ``float()`` and
    ``int()``, which accept any spelling Python does: a line of fewer than
    seven fields that holds a byte, and a row whose frame or id is not an
    integer below 2**53, or that :class:`Detection` rejects. Every value gets
    the bits ``float()`` gives it, and every frame and id its exact integer.
    Raises :class:`ParseError` naming the first offending line on malformed
    input, on a non-finite value or on a box that :class:`Detection` rejects.
    """
    text = stream if isinstance(stream, str) else stream.read()
    values, starts, unread, buf = _read_values(text)
    ids, boxes = values[:, :2].T.copy(), values[:, 2:].T.copy()  # one contiguous column per field
    # a float64 holds every integer below 2**53; a frame of 16 digits, or one spelled 1e20 or -inf, is read as a float first
    odd = ~((ids == np.floor(ids)) & (np.abs(ids) < 2**53)).all(axis=0) | _rejected(*ids, *boxes)
    ids[:, odd] = 1  # set below from the row's line
    frame, track_id = ids.astype(np.int64)
    lines = sorted(zip(starts[odd].tolist() + unread.tolist(), np.flatnonzero(odd).tolist() + [None] * len(unread)))
    lineno = seen = 0
    for start, row in lines:
        lineno += buf.count(b"\n", seen, start)  # _PAD's newline counts as the one before line 1
        seen = start
        det = _parse_line(buf[start : buf.index(b"\n", start)].decode("utf-8", "surrogatepass"), lineno)
        if det is not None:  # a row's line: an unread one is blank or raises
            frame[row], track_id[row] = det.frame, det.track_id
    return DetectionTable._wrap([frame, track_id, *boxes])


# Number text. Track files, candidate dumps and the seqinfo frame rate print
# their numbers through _format_rows, which prints whole columns at once: a
# value's text is right-aligned in a fixed-width, NUL-padded field of a byte
# matrix that holds a chunk of rows, separators included, and one
# bytes.translate drops the NULs. Track files are read back by _read_chunk,
# which reads the digits of each field as little-endian 8-byte words.

_U = np.uint64
_CHUNK_ROWS = 1 << 14  # rows per byte matrix: bounds the memory of a write
_VECTOR_RANGE = (1e-4, 1e15)  # non-integral magnitudes whose repr _shortest_digits computes
_CHUNK_BYTES = 1 << 18  # text per read chunk: whole-text arrays read slower
_PAD = b"0" * 23 + b"\n"  # before the text: every word read lies in the buffer, and a line starts after a newline
_TOP_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)  # [k]: the top k bytes of a word
# [j][k]: the bytes that hold digits of a part of k digits in the word that
# ends 8 * j bytes before the part does
_PART_BYTES = _TOP_BYTES[np.clip(np.arange(25) - 8 * np.arange(3)[:, None], 0, 8)]
_TENS = np.cumprod(np.array([1.0] + [10.0] * 22))  # [k]: 10.0**k, exact for k < 23


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(quads, pow10, pow5)``, built on first use with array operations only.

    ``quads[k * 10000 + r]`` holds, as one uint32, the four ASCII digits of
    ``r`` zero-padded with all but the last ``k`` (0 to 4) replaced by NUL;
    ``pow10[k]`` is ``10**k`` for k < 20 and ``pow5[k]`` is ``5**k`` for k < 23,
    both uint64.
    """
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    kept = np.arange(4) >= 4 - np.arange(5)[:, None, None]  # (k, 1, position)
    quads = np.where(kept, digits, np.uint8(0)).view(np.uint32).reshape(-1)
    pow10 = np.cumprod(np.array([1] + [10] * 19, dtype=np.uint64))
    pow5 = np.cumprod(np.array([1] + [5] * 22, dtype=np.uint64))
    return quads, pow10, pow5


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact products ``a * b`` of uint64 ``a < 2**55`` and ``b < 2**53`` as (high, low) uint64 halves."""
    m32, s32 = _U(0xFFFFFFFF), _U(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    mid = a0 * b1 + a1 * b0  # < 2**56: no overflow
    low = a0 * b0
    high = a1 * b1 + (mid >> s32)
    total = low + (mid << s32)  # wraps at 2**64 ...
    high += total < low  # ... and carries
    return high, total


def _shift(high: np.ndarray, low: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``(high * 2**64 + low) >> s`` for 0 < s < 64, where the result is below 2**64."""
    return (high << (_U(64) - s)) | (low >> s)


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr's digits of each float64 in ``a``, all positive, non-integral and in ``_VECTOR_RANGE``.

    Returns ``(digits, fraction)``, uint64 and int64: ``repr(v)`` is
    ``digits / 10**fraction`` in positional notation with ``fraction`` >= 1
    digits after the point.

    This is Ryu's shortest-digit search (Adams, PLDI 2018) on exact integers.
    For ``v = m * 2**e``, the 128-bit products ``(4m + {0, 2, -2}) * 5**q``
    shifted right by ``2 - q - e`` bits are the floors of ``v * 10**q`` and of
    the ends of the interval ``v ± 2**(e - 1)`` of reals that round to ``v``,
    scaled alike; ``q`` gives ``v * 10**q`` 18 or 19 digits before the point,
    more than repr's 17. The digits are those of ``v * 10**q`` without its
    last ``K`` digits, for the largest ``K`` whose truncation still separates
    the upper end from the lower one, rounded to nearest with ties to even.

    Three branches of Ryu are left out. Below 1e15, ``e <= -3``, so an
    interval end is an odd multiple of ``2**(e - 1)`` with at least 19
    significant digits: it is never a candidate of at most 18 digits, so its
    inclusion needs no handling and the floors decide the search as the exact
    ends would. Ryu raises a truncation that is not above the lower end; here
    such a truncation ``c`` lies below ``v`` by more than the half-width ``h``
    of the interval and by at least ``10**K - h``, since ``c + 10**K`` is
    inside it, so more than half a unit: rounding to nearest raises it
    already. The narrower lower interval of a power of two is not modelled:
    every power of two in the range prints as repr does (tested).
    """
    _, pow10, pow5 = _tables()
    bits = a.view(np.uint64)
    m4 = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(2)
    e = (bits >> _U(52)).astype(np.int64) - 1075
    # the decade of v or the one below, however log10 rounds: 18 or 19 digits
    q = 17 - np.floor(np.log10(a) - 1e-9).astype(np.int64)
    s = (2 - q - e).astype(np.uint64)
    five = pow5[q]
    high, low = _product(m4, five)
    gap = five << _U(1)  # the product's change from 4m to 4m ± 2
    upper = low + gap
    vr = _shift(high, low, s)
    vp = _shift(high + (upper < low), upper, s)
    vm = _shift(high - (low < gap), low - gap, s)
    # K is at least 1 (repr has at most 17 digits) and at most 18; search the rest bit by bit
    k = np.ones(len(a), np.int64)
    for step in (16, 8, 4, 2, 1):
        trial = np.minimum(k + step, 18)
        p = pow10[trial]
        k = np.where(vp // p > vm // p, trial, k)
    p = pow10[k - 1]
    kept = vr // p  # the digits and the last removed one
    digits = kept // _U(10)
    last = kept - digits * _U(10)
    exact = ((low << (_U(64) - s)) == 0) & (vr - kept * p == 0)  # nothing nonzero below the last removed digit
    tie = (last == 5) & exact & ((digits & _U(1)) == 0)
    digits += (last >= 5) & ~tie
    return digits, q - k


def _digits(values: np.ndarray, count: np.ndarray, groups: int) -> np.ndarray:
    """The last ``count`` decimal digits of each uint64 value, zero-padded, right-aligned in ``4 * groups`` NUL-padded bytes."""
    quads = _tables()[0]
    index = np.empty((len(values), groups), np.int64)
    for g in range(groups - 1, -1, -1):  # the last group holds the lowest four digits
        higher = values // _U(10000)
        index[:, g] = (values - higher * _U(10000)).astype(np.int64)
        values = higher
    index += np.clip(count[:, None] - 4 * np.arange(groups - 1, -1, -1), 0, 4) * 10000
    return quads[index].view(np.uint8)


def _number_block(values: np.ndarray, sep: bytes) -> np.ndarray:
    """Each value, then ``sep``, as one NUL-padded row of an (N, width) ASCII byte matrix.

    An int64 prints its digits. A float64 integral value below 1e15 in
    magnitude prints without a decimal point (``-0.0`` as ``0``), any other
    float64 as ``repr`` does. Integral values below 1e15 and non-integral ones
    in ``_VECTOR_RANGE`` are printed from their digits; ``repr`` prints the
    others: subnormals, magnitudes below 1e-4 or from 1e15 up, and non-finite
    values.
    """
    _, pow10, _ = _tables()
    n = len(values)
    count = np.zeros(n, np.int64)  # fraction digits
    by_repr = np.zeros(n, bool)
    if values.dtype.kind == "f":
        a = np.abs(values)
        a[np.isnan(a)] = np.inf  # no ordered comparison meets a nan (some numpy versions warn)
        small = a < _VECTOR_RANGE[1]
        whole = np.trunc(np.where(small, a, 0.0))
        integral = small & (whole == a)
        vector = small & ~integral & (a >= _VECTOR_RANGE[0])
        by_repr = ~(integral | vector)
        whole = whole.astype(np.uint64)
        fraction = np.zeros(n, np.uint64)
        if vector.any():
            digits, count[vector] = _shortest_digits(a[vector])
            p = pow10[np.minimum(count[vector], 19)]  # a fraction of 19 or 20 digits has no whole part
            whole[vector] = digits // p
            fraction[vector] = digits - whole[vector] * p
        sign = np.signbit(values) & ~by_repr & (values != 0)  # -0.0 prints as 0
    else:
        sign = values < 0
        whole = values.astype(np.uint64)
        whole[sign] = -whole[sign]  # modulo 2**64: exact for int64's minimum too
    length = np.maximum(np.searchsorted(pow10, whole, "right"), 1)
    int_width = 4 * -(-int(length.max(initial=1)) // 4)
    frac_width = 4 * -(-int(count.max(initial=0)) // 4)
    texts = np.array([repr(v).encode() + sep for v in values[by_repr].tolist()], dtype=bytes)
    width = max(1 + int_width + (frac_width and 1 + frac_width) + len(sep), texts.itemsize)
    block = np.zeros((n, width), np.uint8)
    block[:, 0] = np.where(sign, np.uint8(ord("-")), np.uint8(0))
    block[:, 1 : 1 + int_width] = _digits(whole, length, int_width // 4)
    if frac_width:
        block[:, 1 + int_width] = np.where(count > 0, np.uint8(ord(".")), np.uint8(0))
        block[:, 2 + int_width : 2 + int_width + frac_width] = _digits(fraction, count, frac_width // 4)
    block[:, width - len(sep) :] = np.frombuffer(sep, np.uint8)
    block[by_repr] = 0
    block[by_repr, : texts.itemsize] = texts.view(np.uint8).reshape(-1, texts.itemsize)
    return block


def _format_rows(
    columns: Sequence[np.ndarray],
    separators: Sequence[str],
    words: tuple[int, np.ndarray, str] | None = None,
) -> str:
    """Rows of text, row k holding each column's value k followed by that column's separator.

    Numbers print by the rule of :func:`_number_block`, each column of a chunk
    once per distinct value and gathered back by row. ``words``, when given,
    is ``(column, mask, word)``: the rows that ``mask`` selects print ``word``
    in that column instead of their value.
    """
    separators = [s.encode() for s in separators]
    text = []
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        blocks = []
        for column, sep in zip(columns, separators):
            distinct, inverse = np.unique(column[rows], return_inverse=True)  # 0.0 and -0.0 print alike
            blocks.append(np.take(_number_block(distinct, sep), inverse, axis=0))
        if words is not None:
            k, mask, word = words
            word = np.frombuffer(word.encode() + separators[k], np.uint8)
            block = blocks[k] = np.pad(blocks[k], ((0, 0), (0, max(len(word) - blocks[k].shape[1], 0))))
            block[mask[rows]] = 0
            block[mask[rows], : len(word)] = word
        text.append(np.concatenate(blocks, axis=1).tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The number each uint64 of ``x`` spells in its eight bytes, digit values 0-9, the first digit in the lowest byte.

    Digits combine into pairs, quads and all eight by one multiplication
    each (Lemire, "Number Parsing at a Gigabyte per Second", SP&E 2021).
    """
    x = (x * _U(10 * 256 + 1)) >> _U(8)  # byte 2k: pair k; what overflows 2**64 would reach only byte 7
    x = ((x & _U(0x00FF00FF00FF00FF)) * _U(100 * 2**16 + 1)) >> _U(16)  # 16 bits at 32k: quad k
    return ((x & _U(0x0000FFFF0000FFFF)) * _U(10000 * 2**32 + 1)) >> _U(32)


def _nearest(w: np.ndarray, fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w / 10**fraction`` rounded to the nearest float64 as ``float()`` rounds its decimal spelling, and the roundings left open.

    ``w`` is uint64 below 10**19 and ``fraction`` from 0 to 22. Returns
    ``(values, left)``: ``left`` indexes the values not settled here. They
    lie next to a power of two, or at ``v >= 2**(53 - fraction)``, which
    needs ``w >= 2**53 * 5**fraction`` and so ``fraction <= 4``: never a
    number ``_format_rows`` prints from digits.

    Below 2**53, ``w`` and ``10**fraction`` are exact doubles and one
    correctly rounded division gives the result (Clinger, "How to Read
    Floating Point Numbers Accurately", PLDI 1990). From 2**53 up,
    ``d0 = float(w) / 10**fraction`` carries two roundings and lies within
    two units of the last place ``u = 2**E`` of ``d0 = M * 2**E``, M in
    [2**52, 2**53). Where ``a = -(E + fraction)`` is in [0, 63], the
    residual ``r = w * 2**a - M * 5**fraction`` is an integer and
    ``(v - d0) / u == r / 5**fraction`` exactly, so ``d0`` moves by ``k``
    units, ``r / 5**fraction`` rounded to nearest. ``w << a`` and
    ``M * 5**fraction`` wrap at 2**64, but ``|r|`` is below
    ``2 * 5**22 < 2**53``, so their wrapping difference read as int64 is
    ``r`` itself. ``k`` is never a tie: ``r / 5**fraction == j + 1/2`` would
    make the even ``2 * r`` equal the odd ``(2 * j + 1) * 5**fraction``.
    ``a`` is at most 52 for ``w < 10**19``, and below 0 only where
    ``v >= 2**(53 - fraction)``, which is left open. A result that leaves ``d0``'s binade, or that lands on the binade's power of two
    from above it, where the spacing below is half a unit, is left open.
    """
    pow5 = _tables()[2]
    v = w.astype(np.float64) / _TENS[fraction]
    big = np.flatnonzero(w >= _U(2**53))
    if len(big):
        bits, places = v[big].view(np.uint64), fraction[big]
        a = 1075 - (bits >> _U(52)).astype(np.int64) - places
        inside = (a >= 0) & (a < 64)
        five = pow5[places]
        significand = (bits & _U(2**52 - 1)) | _U(2**52)
        r = ((w[big] << (a * inside).astype(np.uint64)) - significand * five).view(np.int64)
        five = five.view(np.int64)
        k = (2 * r + five) // (2 * five)
        fixed = bits + k.view(np.uint64)
        below = ((fixed & _U(2**52 - 1)) == 0) & (r < k * five)  # v below the power of two fixed lands on
        v[big] = fixed.view(np.float64)
        big = big[~inside | (((fixed ^ bits) >> _U(52)) != 0) | below]
    return v, big


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return nan


def _settle(buf: bytes, start: np.ndarray, end: np.ndarray) -> list[float]:
    """``float()`` of each field ``buf[start:end]``, stripped as the line parser strips it; NaN for one it rejects."""
    return [_float_or_nan(buf[s:e].decode("utf-8", "surrogatepass").strip()) for s, e in zip(start.tolist(), end.tolist())]


def _read_chunk(buf: bytes, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first seven fields of the lines of ``buf[lo:hi]`` that have seven or more, and where those lines and the others start.

    Returns ``(values, starts, unread)``: an (n, 7) float64 array, the
    offsets of the n lines in ``buf``, and those of the lines of fewer than
    seven fields that hold a byte. ``buf[lo - 1]`` and ``buf[hi - 1]`` are
    newlines and ``lo >= 24``. A line of fewer than seven fields, empty or
    not, gives no row. A field ``float()`` rejects reads as NaN.
    One ``<= 46`` pass finds the separators, minus signs and dots. A field
    ``-?D{1,16}(.D{1,22})?`` of at most 19 digits, leading zeros not counted
    where the whole part is zero, is read in numpy: its whole part is the top bytes of the two 8-byte
    words that end at its dot (or its end), its fraction those of the three
    words that end at its end, and :func:`_nearest` rounds it. The words 16
    bytes before the dot and 24 before the end are read only for the fields
    that reach into them. :func:`_settle` reads the other fields, those whose
    rounding ``_nearest`` leaves open and, where the chunk has any, those
    that hold a byte from 0x80 up.
    """
    arr = np.frombuffer(buf, np.uint8)
    at = np.flatnonzero(arr[lo - 1 : hi] <= 46)  # at[0] is the newline before the chunk
    at += lo - 1
    char = arr[at]
    sep = np.flatnonzero((char == 44) | (char == 10))  # commas and newlines, indexes into at
    lines = np.flatnonzero(char[sep] == 10)  # indexes into sep: the newline before each line, then the last line's own
    fields = np.diff(lines)
    heads = None
    unread = np.empty(0, np.int64)
    if (fields < 7).any():
        # a short line leaves sep with its separators: the newline before it ends the line before, and the line after starts after its own
        newline = at[sep[lines]]
        kept = fields >= 7
        unread = newline[:-1][~kept & (np.diff(newline) > 1)] + 1
        sep = sep[np.concatenate(([True], np.repeat(kept, fields)))]  # sep[0], then each line's separators
        lines = np.flatnonzero(char[sep] == 10)
        heads = newline[:-1][kept] + 1
    opening = (lines[:-1, None] + np.arange(7)).ravel()  # the separator before each of the first seven fields
    start = at[sep[opening]] + 1
    if heads is not None:
        start[::7] = heads
    cur = sep[opening + 1]  # each field's closing separator, an index into at
    end = at[cur]
    last = cur - 1  # the last special before the separator: the dot, if the field has one
    dot = (char[last] == 46).view(np.int8)
    minus = (arr[start] == 45).view(np.int8)
    point = end + (at[last] - end) * dot  # the dot, or the end of a field without one
    fraction = end - point - dot
    whole = point - start - minus
    # the minus sign, the dot and the digit bytes checked below cover a field of this shape: nothing else fits in it
    shaped = ((whole - 1).view(np.uint64) < _U(16)) & ((fraction - dot).view(np.uint64) < _U(22))
    whole *= shaped
    fraction *= shaped
    zeros = _U(0x3030303030303030)  # digit bytes XOR "0" are their values
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    high = (words[point - 8] ^ zeros) & _PART_BYTES[0][whole]
    mid = (words[end - 16] ^ zeros) & _PART_BYTES[1][fraction]
    low = (words[end - 8] ^ zeros) & _PART_BYTES[0][fraction]
    # a byte above 9 sets its top bit when 0x76 is added; an ASCII byte does not carry, and fields with others are settled below
    nines = _U(0x7676767676767676)
    flags = (high + nines) | (mid + nines) | (low + nines)
    integer, decimals = _eight_digits(high), _eight_digits(mid) * _U(10**8) + _eight_digits(low)
    # the digits spell an integer below 10**19: at most 19 of them, or a zero whole part and at most 16 fraction digits ...
    fits = (whole + fraction <= 19) | (integer == 0)
    wide = np.flatnonzero((whole > 8) | (fraction > 16))  # with digits in the word 16 bytes before the point or 24 before the end
    if len(wide):
        more = (words[point[wide] - 16] ^ zeros) & _PART_BYTES[1][whole[wide]]
        most = (words[end[wide] - 24] ^ zeros) & _PART_BYTES[2][fraction[wide]]
        flags[wide] |= (more + nines) | (most + nines)
        integer[wide] += _eight_digits(more) * _U(10**8)
        top = _eight_digits(most)
        decimals[wide] += top * _U(10**16)
        # ... or more, where those before the last 16 spell a number below 1000
        fits[wide] = (whole[wide] + fraction[wide] <= 19) | ((integer[wide] == 0) & (top < _U(1000)))
    read = shaped & fits & ((flags & _U(0x8080808080808080)) == 0)
    w = integer * _tables()[1][np.minimum(fraction, 19)] + decimals
    values, left = _nearest(w, fraction)
    values.view(np.uint64)[...] |= minus.astype(np.uint64) << _U(63)
    read[left] = False
    if arr[lo:hi].max() >= 0x80:
        high = np.flatnonzero(arr[lo:hi] >= 0x80) + lo
        field = np.searchsorted(start, high, "right") - 1  # the last field starting at or before the byte
        inside = field >= 0  # a byte on a short line before the chunk's first row is in no field
        field, high = field[inside], high[inside]
        read[field[high < end[field]]] = False
    loose = np.flatnonzero(~read)
    if len(loose):
        values[loose] = _settle(buf, start[loose], end[loose])
    return values.reshape(-1, 7), start[::7], unread


# what follows each of the seven columns on a line
_SEPARATORS = (",",) * 6 + (",-1,-1,-1\n",)


def write_tracks(detections: Iterable[Detection], stream: TextIO | None = None) -> str:
    """Write detections in MOTChallenge format, sorted by (frame, id) by :meth:`DetectionTable.by_frame`.

    The detections are written as the columns of ``DetectionTable.of``, so
    every value field prints its float64 value by one rule: an integral value
    below 1e15 in magnitude prints without a decimal point (``-0.0`` as
    ``0``), any other value as its shortest round-trip repr. A repeated
    (frame, id) is written, its rows in input order, as :func:`parse_tracks`
    reads it. Returns the text; also writes it to ``stream`` when given.
    ``parse_tracks(write_tracks(D))`` reproduces D up to ordering.
    """
    text = _format_rows(DetectionTable.of(detections).by_frame().columns, _SEPARATORS)
    if stream is not None:
        stream.write(text)
    return text


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at ``path`` as text-mode ``open`` reads it, without a leading byte-order mark.

    A byte that is not UTF-8 raises :class:`ParseError` ``{path}: line {n}: ...``.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start] + b"x").splitlines())  # bytes split at \r\n, \r and \n, as text mode does
        raise ParseError(f"{path}: line {lineno}: not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})") from None


def read_kv(path: str | Path) -> dict[str, tuple[str, int]]:
    """Each key of the settings file at ``path`` (see :func:`read_text`) with its value and line number, in file order.

    Lines end at ``\\n``, as in a track file. ``#`` starts a comment; blank
    lines, ``[section]`` headers and lines starting with ``;`` are skipped. A
    line without ``=`` or a key given twice raises :class:`ParseError`
    (``{path}: line N: expected key = value, got '...'``, ``... given twice, first on line M``).
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith(("[", ";")):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = map(str.strip, line.partition("="))
        if key in entries:
            raise ParseError(f"{path}: line {lineno}: {key} given twice, first on line {entries[key][1]}")
        entries[key] = value, lineno
    return entries


def load_tracks(path: str | Path) -> DetectionTable:
    """Parse the MOTChallenge track file at ``path`` (see :func:`parse_tracks`), read by :func:`read_text`.

    A :class:`ParseError` names the file before the line: ``{path}: line {n}: ...``.
    """
    text = read_text(path)
    try:
        return parse_tracks(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


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


# seqinfo key -> (SequenceMeta field, parser of its value)
_SEQINFO_KEYS = {
    "frameRate": ("fps", float),
    "imWidth": ("img_width", _parse_int),
    "imHeight": ("img_height", _parse_int),
    "seqLength": ("num_frames", _parse_int),
}


def read_seqinfo(path: str | Path) -> SequenceMeta:
    """Read sequence metadata from a seqinfo-style settings file (see :func:`read_kv`).

    Unknown keys are ignored; ``frameRate``, ``imWidth``, ``imHeight`` and
    ``seqLength`` are required, and each value must pass :class:`SequenceMeta`'s
    rule (``1920.0`` is an integer). Raises :class:`ParseError` naming the
    file, and the line of a bad value.
    """
    values: dict[str, float | int] = {}
    for key, (value, lineno) in read_kv(path).items():
        if key in _SEQINFO_KEYS:
            field, parse = _SEQINFO_KEYS[key]
            try:
                values[field] = parse(value)
                _check_meta(field, values[field])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad value for {key}: {value!r}") from None
    missing = [k for k, (field, _) in _SEQINFO_KEYS.items() if field not in values]
    if missing:
        raise ParseError(f"seqinfo file {path} is missing keys: {', '.join(missing)}")
    try:
        return SequenceMeta(**values)
    except ValueError as exc:  # every value passed its check, so no one key is at fault
        raise ParseError(f"seqinfo file {path}: {exc}") from None


def write_seqinfo(meta: SequenceMeta, path: str | Path, name: str = "synthetic") -> None:
    text = (
        "[Sequence]\n"
        f"name={name}\n"
        f"frameRate={_format_rows([np.array([meta.fps], dtype=np.float64)], [''])}\n"  # the number rule of write_tracks
        f"seqLength={meta.num_frames}\n"
        f"imWidth={meta.img_width}\n"
        f"imHeight={meta.img_height}\n"
    )
    with atomic_writer(path) as f:
        f.write(text)
