"""Tracklet modeling: endpoint summaries and overlap-triggered cutting.

A tracklet is a frame-sorted run of detections sharing one id, and is
summarized at both ends by a representative box and a center velocity. The
first and last boxes of a tracklet tend to be the least trustworthy (the track
usually broke there), so for long tracklets the summaries average a window of
boxes just inside each end instead of using the end box itself.

One sequence's tracklets are a :class:`Tracklets`: the runs of one
:class:`~trackstitch.mot_io.DetectionTable`, with their endpoint summaries as
columns (:class:`EndpointArrays`). A :class:`Tracklet` object, holding a slice
of the table, is built only when one is read.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .mot_io import Detection, DetectionTable

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class EndpointSummary:
    """Representative state of a tracklet at one of its ends."""

    frame: int
    box: Box
    velocity: tuple[float, float]  # pixels/frame, center motion

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + w / 2.0, y + h / 2.0)


@dataclass(frozen=True)
class Tracklet:
    """A frame-sorted run of same-id detections plus its two endpoint summaries.

    ``detections`` is a table, usually a slice of a larger one; its rows become
    :class:`Detection` objects only when read.
    """

    id: int
    detections: DetectionTable
    start: EndpointSummary
    end: EndpointSummary

    def __post_init__(self):
        if not self.detections:
            raise ValueError("tracklet must contain at least one detection")

    def __len__(self) -> int:
        return len(self.detections)


def iou(box_a: Box, box_b: Box) -> float:
    """Intersection over union of two (x, y, w, h) boxes with positive sizes, in [0, 1]; 0 when disjoint.

    One pair of :func:`iou_pairs`.
    """
    return float(iou_pairs(np.asarray(box_a, dtype=float), np.asarray(box_b, dtype=float)))


def iou_pairs(boxes_a, boxes_b) -> np.ndarray:
    """Element-wise IoU of two box stacks ``(x, y, w, h)`` of broadcastable arrays, in [0, 1].

    Each stack holds one array per box column (a ``(4, ...)`` array or a
    4-tuple), and every box must have a positive size. Rounding can push the
    raw ratio of two (near-)identical boxes a few ulps past 1, which would
    make the distance ``1 - iou`` negative; it is clamped.
    """
    ax, ay, aw, ah = boxes_a
    bx, by, bw, bh = boxes_b
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    return np.minimum(inter / (aw * ah + bw * bh - inter), 1.0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) and (M, 4) arrays of (x, y, w, h) boxes, as :func:`iou_pairs` scores them."""
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    return iou_pairs(boxes_a.T[:, :, None], boxes_b.T[:, None, :])


def check_window(window: int, min_len: int, names: tuple[str, str] = ("window", "min_len")) -> None:
    """Raise ValueError, naming both values by ``names``, unless both are integers and ``2 <= window < min_len`` (see :func:`make_tracklets`)."""
    w, m = names
    for name, value in zip(names, (window, min_len)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value}")
    if not 2 <= window < min_len:
        raise ValueError(f"{w} must satisfy 2 <= {w} < {m}, got {w}={window}, {m}={min_len}")


@dataclass(frozen=True)
class EndpointArrays:
    """The endpoint state of a tracklet sequence as columns, one row per tracklet.

    Boxes are (x, y, w, h) rows, velocities (vx, vy) rows in pixels/frame, and
    speeds their ``math.hypot`` norms, computed on first read.
    """

    ids: np.ndarray
    start_frame: np.ndarray
    end_frame: np.ndarray
    start_box: np.ndarray
    end_box: np.ndarray
    start_velocity: np.ndarray
    end_velocity: np.ndarray

    @classmethod
    def of(cls, tracklets: Sequence[Tracklet]) -> EndpointArrays:
        """The summaries the tracklet objects carry."""
        starts = [t.start for t in tracklets]
        ends = [t.end for t in tracklets]
        return cls(
            ids=np.array([t.id for t in tracklets], dtype=np.int64),
            start_frame=np.array([e.frame for e in starts], dtype=np.int64),
            end_frame=np.array([e.frame for e in ends], dtype=np.int64),
            start_box=np.array([e.box for e in starts], dtype=float).reshape(-1, 4),
            end_box=np.array([e.box for e in ends], dtype=float).reshape(-1, 4),
            start_velocity=np.array([e.velocity for e in starts], dtype=float).reshape(-1, 2),
            end_velocity=np.array([e.velocity for e in ends], dtype=float).reshape(-1, 2),
        )

    @cached_property
    def start_speed(self) -> np.ndarray:
        return _norms(self.start_velocity)

    @cached_property
    def end_speed(self) -> np.ndarray:
        return _norms(self.end_velocity)

    def summaries(self, k: int) -> tuple[EndpointSummary, EndpointSummary]:
        """The start and end summaries of row ``k``."""
        start, end = (
            EndpointSummary(frame[k].item(), tuple(box[k].tolist()), tuple(velocity[k].tolist()))
            for frame, box, velocity in (
                (self.start_frame, self.start_box, self.start_velocity),
                (self.end_frame, self.end_box, self.end_velocity),
            )
        )
        return start, end


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The ``math.hypot`` norm of each (x, y) row."""
    return np.fromiter(map(math.hypot, *vectors.T.tolist()), dtype=float, count=len(vectors))


def _window_means(columns: Sequence[np.ndarray], starts: np.ndarray, length: int) -> np.ndarray:
    """``np.mean`` of each column over each window ``[starts[k], starts[k] + length)``, shape (columns, windows).

    The windows are gathered into one C-contiguous matrix; its mean along
    axis 1 sums and rounds every row exactly as ``np.mean`` does on that
    window alone.
    """
    idx = starts[:, None] + np.arange(length)
    return np.stack([np.mean(column[idx], axis=1) for column in columns])


def _endpoints(rows: DetectionTable, bounds: np.ndarray, ids: np.ndarray, window: int, min_len: int) -> EndpointArrays:
    """The endpoint columns of every run ``rows[bounds[k]:bounds[k + 1]]`` (see :func:`make_tracklets`)."""
    lo = bounds[:-1]
    n = np.diff(bounds)
    last = lo + n - 1
    # step k is the center motion from row k to row k + 1 over their frame
    # delta; a step from one run into the next is never read, and its delta
    # is set to 1 so that it cannot divide by zero
    dt = np.diff(rows.frame)
    dt[lo[1:] - 1] = 1
    steps = np.stack([np.diff(pos + size / 2.0) / dt for pos, size in ((rows.x, rows.w), (rows.y, rows.h))])

    boxes = (rows.x, rows.y, rows.w, rows.h)
    start_box = np.stack([c[lo] for c in boxes])
    end_box = np.stack([c[last] for c in boxes])
    start_velocity = np.zeros((2, len(n)))  # a single detection does not move
    end_velocity = np.zeros((2, len(n)))
    moving = n >= 2
    start_velocity[:, moving] = steps[:, lo[moving]]
    end_velocity[:, moving] = steps[:, last[moving] - 1]
    long_runs = n >= min_len
    head, tail = lo[long_runs] + 1, last[long_runs] - window
    start_box[:, long_runs] = _window_means(boxes, head, window)
    end_box[:, long_runs] = _window_means(boxes, tail, window)
    start_velocity[:, long_runs] = _window_means(steps, head, window - 1)
    end_velocity[:, long_runs] = _window_means(steps, tail, window - 1)
    return EndpointArrays(
        ids=ids,
        start_frame=rows.frame[lo],
        end_frame=rows.frame[last],
        start_box=start_box.T.copy(),
        end_box=end_box.T.copy(),
        start_velocity=start_velocity.T.copy(),
        end_velocity=end_velocity.T.copy(),
    )


class Tracklets(Sequence[Tracklet]):
    """One sequence's tracklets as columns: the runs ``rows[bounds[k]:bounds[k + 1]]`` of one table.

    Tracklet k is named ``ids[k]``, and its frames must increase strictly
    (else ValueError: a frame given twice, or one going back). Its endpoint
    summaries are the row k of :attr:`ends`, which are either given or
    computed, on first read, from the rows with ``window`` and ``min_len``
    (see :func:`make_tracklets`).
    Indexing or iterating builds a :class:`Tracklet` only when it is read,
    as a :class:`DetectionTable` does for :class:`Detection`; like a list,
    the sequence compares equal to a list or tuple of the same tracklets.
    """

    __slots__ = ("rows", "bounds", "ids", "window", "min_len", "_ends")

    def __init__(
        self,
        rows: DetectionTable,
        bounds,
        ids,
        window: int | None = None,
        min_len: int | None = None,
        ends: EndpointArrays | None = None,
    ):
        # the slots are set first, so that an instance whose checks raised has a repr
        self.rows = rows
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.window, self.min_len, self._ends = window, min_len, ends
        if ends is None:
            check_window(window, min_len)
        if (np.diff(self.bounds) < 1).any():
            raise ValueError("tracklet must contain at least one detection")
        lo = self.bounds[0]
        steps = np.diff(rows.frame[lo : self.bounds[-1]])
        steps[self.bounds[1:-1] - lo - 1] = 1  # a step from one run into the next
        back = lo + np.flatnonzero(steps < 1)
        if len(back):
            tid = self.ids[np.searchsorted(self.bounds, back[0], side="right") - 1].item()
            prev, frame = rows.frame[back[0] : back[0] + 2].tolist()
            if frame == prev:
                raise ValueError(f"({tid},{frame}) duplicated: track {tid} has two detections in frame {frame}")
            raise ValueError(f"track {tid} goes back in time: frame {frame} follows frame {prev}")

    @classmethod
    def of(cls, tracklets: Iterable[Tracklet]) -> Tracklets:
        """``tracklets`` itself if it is a Tracklets, else the tracklets in order, with the summaries they carry."""
        if isinstance(tracklets, Tracklets):
            return tracklets
        tracklets = list(tracklets)
        rows = DetectionTable.concat(t.detections for t in tracklets)
        ends = EndpointArrays.of(tracklets)
        return cls(rows, np.cumsum([0, *map(len, tracklets)]), ends.ids, ends=ends)

    @property
    def ends(self) -> EndpointArrays:
        if self._ends is None:
            self._ends = _endpoints(self.rows, self.bounds, self.ids, self.window, self.min_len)
        return self._ends

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tracklet]:
        # Sequence.__iter__ would end at an IndexError raised while summarizing
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, k: int) -> Tracklet:
        k = range(len(self))[operator.index(k)]
        return Tracklet(self.ids[k].item(), self.rows[self.bounds[k] : self.bounds[k + 1]], *self.ends.summaries(k))

    def __eq__(self, other) -> bool:
        if isinstance(other, (Tracklets, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Tracklets({list(self)!r})"


def make_tracklet(tid: int, detections: Sequence[Detection], window: int = 6, min_len: int = 10) -> Tracklet:
    """Build a tracklet from detections in strictly increasing frames, computing its endpoint summaries (see :func:`make_tracklets`)."""
    rows = DetectionTable.of(detections)
    return Tracklets(rows, [0, len(rows)], [tid], window, min_len)[0]


def make_tracklets(rows: DetectionTable, bounds: Sequence[int], window: int = 6, min_len: int = 10) -> Tracklets:
    """One tracklet per frame-sorted run ``rows[bounds[k]:bounds[k + 1]]``, named by the run's track id.

    The window must satisfy ``2 <= window < min_len`` (else ``ValueError``),
    so that a run of at least ``min_len`` detections holds its window plus the
    end detection, and the window holds a step. Such a run's start summary averages the
    ``window`` boxes following the first one, and the steps between them; the
    end summary mirrors this with the ``window`` boxes preceding the last.
    Shorter runs keep their end boxes, with the single step at each edge as
    velocity (zero for a single detection). A step is the center displacement
    between consecutive rows over their frame delta, and each mean is
    ``np.mean`` in row order. The summaries of all runs are computed together,
    on first read, equal to :func:`make_tracklet` on each run.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    return Tracklets(rows, bounds, rows.track_id[bounds[:-1]], window, min_len)


def run_bounds(keys: np.ndarray) -> list[int]:
    """The row bounds of the runs of equal values in ``keys``: run k is ``[bounds[k], bounds[k + 1])``."""
    if not len(keys):
        return [0]
    return [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]


def group_tracklets(
    detections: Iterable[Detection],
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> Tracklets:
    """Partition detections by track id into frame-sorted tracklets, in id order.

    A track id observed twice in the same frame is a data error (see
    :class:`Tracklets`). Endpoint summaries are computed with the given
    averaging window (see :func:`make_tracklets`). The tracklets are the runs
    of one table sorted by (id, frame).
    """
    table = DetectionTable.of(detections)
    rows = table.take(np.lexsort((table.frame, table.track_id)))
    return make_tracklets(rows, run_bounds(rows.track_id), endpoint_window, endpoint_min_len)


# most candidate pairs scored at once: the temporaries take about 100 bytes
# per pair, and at this size they stay in the processor's cache
_PAIR_CHUNK = 1 << 15


def aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[r], ..., starts[r] + lengths[r] - 1``, one after the other."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _keys(frame_rank: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The complex sort keys ``frame_rank + x * 1j`` of rows: numpy orders them by frame rank, then by x.

    The parts are set directly, so an x of ``inf`` keeps its real part (the
    product ``1j * inf`` has a NaN one). Ranks, not frames, make the real part:
    a frame of 2**53 or more would round in a float.
    """
    keys = np.empty(len(x), dtype=complex)
    keys.real = frame_rank
    keys.imag = x
    return keys


def _sweep(frames: np.ndarray, x: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by (frame, x) and find, for each, the first row of its frame at or right of its ``right``.

    Returns ``order`` and ``ends``: row ``order[k]`` is the k-th in (frame, x)
    order, rows of equal keys in input order, and ``ends[k]`` is the position
    of the first row of its frame with ``x >= right[order[k]]``, or the end of
    its frame if there is none. (frame rank, edge) is one exact complex key
    (see :func:`_keys`), so one stable sort orders the rows and one binary
    search finds every end.
    """
    frame_rank = np.unique(frames, return_inverse=True)[1]
    start_key = _keys(frame_rank, x)
    order = np.argsort(start_key, kind="stable")
    ends = np.searchsorted(start_key[order], _keys(frame_rank, right)[order])
    return order, ends


def _range_hits(boxes: np.ndarray, lo: np.ndarray, hi: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``(k, j)``, ``lo[k] <= j < hi[k]``, of rows of the (N, 4) array ``boxes`` at ``iou >= threshold``, and their IoUs.

    The candidates are gathered as whole rows of ``boxes`` and scored by
    :func:`iou_pairs` in chunks of at most ``_PAIR_CHUNK`` pairs (or one row's,
    if more). The formula is symmetric bit for bit, so each IoU is
    bit-identical to its :func:`iou_matrix` entry, and the result does not
    depend on the chunk size. The pairs come by ``k``, then ``j``.
    """
    counts = np.maximum(hi - lo, 0)
    totals = np.cumsum(counts)
    hits_k, hits_j, hits_iou = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    first = 0
    while first < len(counts):
        done = totals[first] - counts[first]
        last = max(int(np.searchsorted(totals, done + _PAIR_CHUNK, side="right")), first + 1)
        sizes = counts[first:last]
        j = aranges(lo[first:last], sizes)
        iou = iou_pairs(np.repeat(boxes[first:last], sizes, axis=0).T, boxes[j].T)
        hit = iou >= threshold
        hits_k.append(np.repeat(np.arange(first, last), sizes)[hit])
        hits_j.append(j[hit])
        hits_iou.append(iou[hit])
        first = last
    return np.concatenate(hits_k), np.concatenate(hits_j), np.concatenate(hits_iou)


def same_frame_overlaps(rows: DetectionTable, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row pairs ``(i, j)``, ``i < j``, of one frame whose boxes reach ``iou >= threshold`` (> 0), and their IoUs.

    The rows are swept in (frame, x) order (see :func:`_sweep`): a row is
    scored only against the later rows of its frame that start left of its
    right edge, which include every pair with a positive intersection. The
    swept boxes are scored by :func:`_range_hits`, so each IoU is
    bit-identical to its :func:`iou_matrix` entry. Returns ``(i, j, iou)``,
    the pairs in sweep order.
    """
    order, ends = _sweep(rows.frame, rows.x, rows.x + rows.w)
    k, j, iou = _range_hits(rows.boxes[order], np.arange(1, len(ends) + 1), ends, threshold)
    i, j = order[k], order[j]
    return np.minimum(i, j), np.maximum(i, j), iou


def cross_overlaps(a: DetectionTable, b: DetectionTable, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of a row ``i`` of ``a`` and a row ``j`` of ``b`` in one frame whose boxes reach ``iou >= threshold`` (> 0), and their IoUs.

    The rows of both sides are swept together in (frame, x) order (see
    :func:`_sweep`), a row of ``a`` before the rows of ``b`` at its key. A row
    of ``a`` is scored against the rows of ``b`` of its frame that start in
    ``[x, x + w)``, and a row of ``b`` against the rows of ``a`` that start in
    ``(x, x + w)``: every pair with a positive intersection is scored exactly
    once, and no pair of one side. The swept boxes of ``a``, then of ``b``,
    are scored by :func:`_range_hits`, so each IoU is bit-identical to its
    :func:`iou_matrix` entry. Returns ``(i, j, iou)``.
    """
    n = len(a)
    x = np.concatenate((a.x, b.x))
    order, ends = _sweep(np.concatenate((a.frame, b.frame)), x, x + np.concatenate((a.w, b.w)))
    from_a = order < n
    # the rows of a, and of b, before each position
    a_before = np.concatenate(([0], np.cumsum(from_a)))
    b_before = np.arange(len(order) + 1) - a_before
    lo = np.where(from_a, b_before[:-1] + n, a_before[1:])
    hi = np.where(from_a, b_before[ends] + n, a_before[ends])
    # the sides' swept rows, those of a first
    side = np.concatenate((np.flatnonzero(from_a), np.flatnonzero(~from_a)))
    rows = order[side]
    k, j, iou = _range_hits(np.concatenate((a.boxes, b.boxes))[rows], lo[side], hi[side], threshold)
    k_in_a = k < n
    return rows[np.where(k_in_a, k, j)], rows[np.where(k_in_a, j, k)] - n, iou


def cut_tracklets(
    tracklets: Iterable[Tracklet],
    cut_threshold: float,
    window: int = 6,
    min_len: int = 10,
) -> Tracklets:
    """Cut tracklets wherever two of them start overlapping strongly.

    Whenever two detections from distinct tracklets in one frame reach
    ``iou >= cut_threshold`` (which must lie in (0, 1]) the two tracklets are
    cut so that the overlapping detections begin new fragments. A pair that
    was already overlapping in the immediately preceding frame does not
    trigger again: one sustained overlap event means one cut per tracklet, at
    the frame where the overlap first appears. Fragments of a cut tracklet get
    fresh ids above the existing maximum, in order; untouched tracklets keep
    their ids and summaries, and fragments are summarized with ``window`` and
    ``min_len``.

    The overlapping pairs are found by :func:`same_frame_overlaps` in one
    sweep over all detections. The rows stay as they are: a cut only adds a
    run bound and relabels the fragments' rows.
    """
    if not (0.0 < cut_threshold <= 1.0):
        raise ValueError(f"cutter threshold must lie in (0, 1], got {cut_threshold}")
    check_window(window, min_len)
    tracklets = Tracklets.of(tracklets)
    rows, bounds = tracklets.rows, tracklets.bounds
    i, j, _ = same_frame_overlaps(rows, cut_threshold)
    owners = np.repeat(np.arange(len(tracklets)), np.diff(bounds))

    # one hit per (tracklet pair, frame), as a tracklet holds one row per
    # frame; sorted, a hit is a rising edge unless the same pair also had one
    # in the frame before. The owners ascend with the rows, so i < j gives
    # ti <= tj.
    ti, tj = owners[i], owners[j]
    other = ti != tj
    i, j = i[other], j[other]
    hits, first = np.unique(np.stack([ti[other], tj[other], rows.frame[i]], axis=1), axis=0, return_index=True)
    continued = np.zeros(len(hits), dtype=bool)
    continued[1:] = (hits[1:, 0] == hits[:-1, 0]) & (hits[1:, 1] == hits[:-1, 1]) & (hits[1:, 2] - 1 == hits[:-1, 2])
    rising = first[~continued]

    # a tracklet is cut before its row in the hit's frame; a cut at its own
    # first row splits nothing
    cuts = np.setdiff1d(np.concatenate((i[rising], j[rising])), bounds)
    if not len(cuts):
        return tracklets

    new_bounds = np.union1d(bounds, cuts)
    run_owner = owners[new_bounds[:-1]]
    cut = np.zeros(len(tracklets), dtype=bool)
    cut[owners[cuts]] = True
    fragment = cut[run_owner]
    ids = tracklets.ids[run_owner]
    ids[fragment] = np.arange(fragment.sum()) + tracklets.ids.max() + 1
    sizes = np.diff(new_bounds)
    track_id = np.where(np.repeat(fragment, sizes), np.repeat(ids, sizes), rows.track_id)
    out = Tracklets(rows.relabeled(track_id), new_bounds, ids, window, min_len)
    if (tracklets.window, tracklets.min_len) != (window, min_len):
        # the untouched tracklets' summaries came with them
        ends, kept = out.ends, ~fragment
        for column in fields(EndpointArrays):
            getattr(ends, column.name)[kept] = getattr(tracklets.ends, column.name)[run_owner[kept]]
    return out
