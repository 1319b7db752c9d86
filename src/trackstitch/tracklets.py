"""Tracklet modeling: endpoint summaries and overlap-triggered cutting.

A tracklet is a frame-sorted run of detections sharing one id, and is
summarized at both ends by a representative box and a center velocity. The
first and last boxes of a tracklet tend to be the least trustworthy (the track
usually broke there), so a tracklet of at least ``min_len`` detections
averages the ``window`` boxes just inside each end, and the steps between
them, instead of using the end box itself. A shorter one keeps its end boxes,
with the step at each edge as velocity (zero for a single detection).

One sequence's tracklets are a :class:`Tracklets`: one
:class:`~trackstitch.mot_io.DetectionTable` grouped by track id, where each
run of one id is a tracklet, with their endpoint summaries as columns
(:class:`EndpointArrays`), always computed from those rows. It is the only
form in which functions take tracklets. A :class:`Tracklet` object, the id
and a slice of the table, is a read-side view built only when one is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .mot_io import Detection, DetectionTable, check_iou_threshold, check_window


@dataclass(frozen=True)
class Tracklet:
    """A frame-sorted run of same-id detections.

    ``detections`` is a table, usually a slice of a larger one; its rows become
    :class:`Detection` objects only when read.
    """

    id: int
    detections: DetectionTable

    def __len__(self) -> int:
        return len(self.detections)


def iou_pairs(boxes_a, boxes_b) -> np.ndarray:
    """Element-wise IoU of two box stacks ``(x, y, w, h)`` of broadcastable arrays, in [0, 1].

    Each stack holds one array per box column (a ``(4, ...)`` array or a
    4-tuple; two box tuples give the IoU of one pair), and every box must have
    a positive size. Rounding can push the
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

    @cached_property
    def start_speed(self) -> np.ndarray:
        return _norms(self.start_velocity)

    @cached_property
    def end_speed(self) -> np.ndarray:
        return _norms(self.end_velocity)


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
    """The endpoint columns of every run ``rows[bounds[k]:bounds[k + 1]]`` (see :class:`Tracklets`)."""
    lo = bounds[:-1]
    n = np.diff(bounds)
    last = lo + n - 1
    # step k is the center motion from row k to row k + 1 over their frame
    # delta; a step from one run into the next is never read, and its delta
    # is set to 1 so that it cannot divide by zero
    dt = np.diff(rows.frame)
    dt[lo[1:] - 1] = 1
    with np.errstate(over="ignore"):  # far centers step by inf, as Python floats would
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


def run_bounds(keys: np.ndarray) -> list[int]:
    """The row bounds of the runs of equal values in ``keys``: run k is ``[bounds[k], bounds[k + 1])``."""
    if not len(keys):
        return [0]
    return [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]


class Tracklets(Sequence[Tracklet]):
    """One sequence's tracklets as columns: the runs of one table grouped by track id.

    Each run of rows that read one ``track_id`` is a tracklet, named by that
    id: run k is ``rows[bounds[k]:bounds[k + 1]]`` and its id ``ids[k]``. No
    id may reappear after another (else ValueError), and the frames of a run
    must increase strictly (else the ValueError of
    :meth:`~trackstitch.mot_io.DetectionTable.check_tracks`: a frame given
    twice, or one going back). Its endpoint summaries are the row k of
    :attr:`ends`, computed on first read from the rows with ``window`` and
    ``min_len``.

    The window must satisfy ``2 <= window < min_len`` (else ``ValueError``),
    so that a run of at least ``min_len`` detections holds its window plus the
    end detection, and the window holds a step. Such a run's start summary
    averages the ``window`` boxes following the first one, and the steps
    between them; the end summary mirrors this with the ``window`` boxes
    preceding the last. Shorter runs keep their end boxes, with the single
    step at each edge as velocity (zero for a single detection). A step is the
    center displacement between consecutive rows over their frame delta, and
    each mean is ``np.mean`` in row order. The summaries of all runs are
    computed together, each equal to that of its run alone.

    Indexing or iterating builds a :class:`Tracklet` only when it is read,
    as a :class:`DetectionTable` does for :class:`Detection`; like a list,
    the sequence compares equal to a list or tuple of the same tracklets.
    """

    __slots__ = ("rows", "bounds", "ids", "window", "min_len", "_ends")

    def __init__(self, rows: DetectionTable, window: int = 6, min_len: int = 10):
        # the slots are set first, so that an instance whose checks raised has a repr
        self.rows, self.window, self.min_len, self._ends = rows, window, min_len, None
        self.bounds = np.asarray(run_bounds(rows.track_id), dtype=np.int64)
        self.ids = rows.track_id[self.bounds[:-1]]
        check_window(window, min_len)
        by_id = np.sort(self.ids)
        repeated = np.flatnonzero(by_id[1:] == by_id[:-1])
        if len(repeated):
            raise ValueError(f"duplicate tracklet id {by_id[repeated[0]]}")
        rows.check_tracks()

    @property
    def ends(self) -> EndpointArrays:
        if self._ends is None:
            self._ends = _endpoints(self.rows, self.bounds, self.ids, self.window, self.min_len)
        return self._ends

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Tracklet:
        k = range(len(self))[operator.index(k)]
        return Tracklet(self.ids[k].item(), self.rows[self.bounds[k] : self.bounds[k + 1]])

    def __eq__(self, other) -> bool:
        if isinstance(other, (Tracklets, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Tracklets({list(self)!r})"


def group_tracklets(
    detections: Iterable[Detection],
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> Tracklets:
    """Partition detections by track id into frame-sorted tracklets, in id order.

    A track id observed twice in the same frame is a data error (see
    :class:`Tracklets`). Endpoint summaries are computed with the given
    averaging window. The tracklets are the runs of one table sorted by
    (id, frame).
    """
    table = DetectionTable.of(detections)
    rows = table.take(np.lexsort((table.frame, table.track_id)))
    return Tracklets(rows, endpoint_window, endpoint_min_len)


# most candidate pairs scored at once: the temporaries take about 100 bytes
# per pair, and at this size they stay in the processor's cache
_PAIR_CHUNK = 1 << 15


def aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[r], ..., starts[r] + lengths[r] - 1``, one after the other."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def ranks(values: np.ndarray, kind: str = "stable") -> np.ndarray:
    """The rank of each value among the distinct values, ``np.unique(values, return_inverse=True)[1]``.

    One ``argsort`` of the given ``kind`` orders the values, and the ranks do
    not depend on it. A stable sort runs in linear time on presorted runs,
    such as the frames of two frame-sorted tables one after the other;
    numpy's default ``"quicksort"`` is faster on values without long runs,
    such as the ids of a frame-sorted table.
    """
    order = np.argsort(values, kind=kind)
    ordered = values[order]
    steps = np.zeros(len(values), dtype=np.intp)
    steps[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = np.cumsum(steps)
    return rank


def _sweep(frame_rank: np.ndarray, x: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by one float key each, frame by frame, and find each row's window: the later rows of its frame that may start left of its ``right``.

    ``frame_rank`` is each row's frame rank (see :func:`ranks`). The key of a
    row is ``frame_rank + x * 2**-k``, ``k`` the least integer from 2 up with
    ``max|x| * 2**-k < 1/4``, so that a frame's keys stay within 1/4 of its
    rank (ranks, not frames: a frame of 2**53 or more would round). The key
    of a right edge adds ``right * 2**-k`` capped at 1/2, so that a right
    edge past every x of its frame, or one that overflowed to inf, reaches
    the end of its frame and no further. Returns ``order`` and ``ends``: row
    ``order[k]`` is the k-th in key order, rows of equal keys in input
    order, and ``ends[k]`` is the position of the first key above the key
    of its right edge. One stable sort orders the rows and one binary search
    finds every end.

    Rounding is monotone, so the frames stay grouped in rank order, and a
    later row of the frame with ``x < right`` has a key at most that of the
    right edge: it lies in the window, which never leaves the frame. Where
    the keys are coarse (one far box makes ``k`` large), the window also
    holds rows that start at or right of the edge; their IoU is 0.
    """
    scale = math.ldexp(0.25, -max(math.frexp(float(np.abs(x).max(initial=0.0)))[1], 0))
    key = frame_rank + x * scale
    order = np.argsort(key, kind="stable")
    key = key[order]
    ends = np.searchsorted(key, frame_rank[order] + np.minimum(right[order] * scale, 0.5), side="right")
    return order, ends


def _range_hits(boxes: Sequence[np.ndarray], lo: np.ndarray, hi: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``(k, j)``, ``lo[k] <= j < hi[k]``, of rows of the box columns ``boxes`` at ``iou >= threshold``, and their IoUs.

    ``boxes`` holds the four 1-D columns (x, y, w, h). The candidates are
    gathered from each column, row k once for each of its candidates, and scored
    by :func:`iou_pairs` in chunks of at most ``_PAIR_CHUNK`` pairs (or one
    row's, if more). The formula is symmetric bit for bit, so each IoU is
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
        k, j = np.repeat(np.arange(first, last), sizes), aranges(lo[first:last], sizes)
        iou = iou_pairs([c[k] for c in boxes], [c[j] for c in boxes])
        hit = iou >= threshold
        hits_k.append(k[hit])
        hits_j.append(j[hit])
        hits_iou.append(iou[hit])
        first = last
    return np.concatenate(hits_k), np.concatenate(hits_j), np.concatenate(hits_iou)


def same_frame_overlaps(rows: DetectionTable, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row pairs ``(i, j)``, ``i < j``, of one frame whose boxes reach ``iou >= threshold`` (> 0), and their IoUs.

    The rows are swept in key order, by frame and then about by x (see
    :func:`_sweep`): a row is scored only against the rows of its window,
    the later rows of its frame whose keys reach no further than its right
    edge's. Of two rows that intersect, the later one starts left of the
    earlier one's right edge and lies in its window, so every pair with a
    positive intersection is scored exactly once, by its earlier row; the
    other rows of a window score IoU 0 and fail the threshold. The box
    columns, gathered in sweep order, are scored by :func:`_range_hits`, so
    each IoU is bit-identical to its :func:`iou_matrix` entry. Returns
    ``(i, j, iou)``, the pairs in sweep order.
    """
    order, ends = _sweep(ranks(rows.frame), rows.x, rows.x + rows.w)
    boxes = [c[order] for c in (rows.x, rows.y, rows.w, rows.h)]
    k, j, iou = _range_hits(boxes, np.arange(1, len(ends) + 1), ends, threshold)
    i, j = order[k], order[j]
    return np.minimum(i, j), np.maximum(i, j), iou


def cross_overlaps(
    a: DetectionTable, b: DetectionTable, threshold: float, frame_rank: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of a row ``i`` of ``a`` and a row ``j`` of ``b`` in one frame whose boxes reach ``iou >= threshold`` (> 0), and their IoUs.

    The rows of both sides are swept together in key order (see
    :func:`_sweep`), a row of ``a`` before the rows of ``b`` at its key. Each
    row is scored against the rows of the other side in its window, the
    later rows of its frame whose keys reach no further than its right
    edge's: of two rows that intersect, the later one starts left of the
    earlier one's right edge, so every pair with a positive intersection is
    scored exactly once, by its earlier row, and no pair of one side. The
    other rows of a window score IoU 0 and fail the threshold. The box
    columns of the swept rows of ``a``, then of ``b``, are scored by
    :func:`_range_hits`, so each IoU is bit-identical to its
    :func:`iou_matrix` entry. ``frame_rank``, the frame
    ranks of the rows of ``a`` then ``b`` (see :func:`ranks`), is computed
    when not given. Returns ``(i, j, iou)``.
    """
    n = len(a)
    if frame_rank is None:
        frame_rank = ranks(np.concatenate((a.frame, b.frame)))
    x, y, w, h = (np.concatenate(pair) for pair in ((a.x, b.x), (a.y, b.y), (a.w, b.w), (a.h, b.h)))
    order, ends = _sweep(frame_rank, x, x + w)
    from_a = order < n
    # the rows of a, and of b, before each position
    a_before = np.concatenate(([0], np.cumsum(from_a)))
    b_before = np.arange(len(order) + 1) - a_before
    lo = np.where(from_a, b_before[:-1] + n, a_before[1:])
    hi = np.where(from_a, b_before[ends] + n, a_before[ends])
    # the sides' swept rows, those of a first
    side = np.concatenate((np.flatnonzero(from_a), np.flatnonzero(~from_a)))
    rows = order[side]
    k, j, iou = _range_hits([c[rows] for c in (x, y, w, h)], lo[side], hi[side], threshold)
    k_in_a = k < n
    return rows[np.where(k_in_a, k, j)], rows[np.where(k_in_a, j, k)] - n, iou


def pair_runs(a: np.ndarray, b: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort hits by (a, b, step) and split them into runs: hit ``order[k]`` is the k-th, and run r holds ``order[bounds[r]:bounds[r + 1]]``.

    A run continues while the pair (a, b) stays the same and ``step`` goes up
    by exactly one. No hits make no runs (``bounds`` is ``[0]``).
    """
    order = np.lexsort((step, b, a))
    a, b, step = a[order], b[order], step[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (step[1:] - 1 != step[:-1])
    return order, np.append(np.flatnonzero(opens), len(order))


def overlap_runs(tracklets: Tracklets, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The runs of frames in which two tracklets overlap at ``iou >= threshold`` (> 0): ``(i, j, first, peak)``.

    One :func:`same_frame_overlaps` sweep finds the row pairs ``(i, j)``,
    ``i < j``, of one frame; the pairs of two rows of distinct tracklets are
    the hits, grouped by :func:`pair_runs` over (tracklet of i, tracklet of
    j, frame) and returned in that order. ``first`` and ``peak`` index the
    hits: each run's first hit, and its peak, the hit of highest IoU (the
    earliest frame among equal IoUs).
    """
    rows = tracklets.rows
    i, j, iou = same_frame_overlaps(rows, threshold)
    owners = np.repeat(np.arange(len(tracklets)), np.diff(tracklets.bounds))
    other = owners[i] != owners[j]
    i, j, iou = i[other], j[other], iou[other]
    order, bounds = pair_runs(owners[i], owners[j], rows.frame[i])
    i, j, iou = i[order], j[order], iou[order]
    first = bounds[:-1]
    # a stable sort keeps a run's equal IoUs in frame order
    run = np.repeat(np.arange(len(first)), np.diff(bounds))
    return i, j, first, np.lexsort((-iou, run))[first]


def cut_tracklets(
    tracklets: Tracklets,
    cut_threshold: float,
    window: int = 6,
    min_len: int = 10,
) -> Tracklets:
    """Cut tracklets wherever two of them start overlapping strongly.

    Each run of frames in which two tracklets overlap at ``iou >= cut_threshold``
    (which must lie in (0, 1]), as :func:`overlap_runs` finds them, cuts both
    tracklets at the run's first frame, so that the overlapping detections
    begin new fragments: one sustained overlap means one cut per tracklet, and
    a run ends where either tracklet skips a frame. Fragments of a cut
    tracklet get fresh ids above the existing maximum, in order; untouched
    tracklets keep their ids. Where the fresh ids would pass 2**63 - 1, the
    untouched tracklets take their ids' ranks from 1 instead and the fresh
    ids follow, so every id keeps its place in the order of the ids. Every
    output tracklet, untouched ones included, is summarized from its rows
    with ``window`` and ``min_len``.

    The rows stay where they are: a cut only relabels the fragments' rows,
    whose new ids make new runs.
    """
    check_iou_threshold(cut_threshold, "cut_threshold")
    rows, bounds = tracklets.rows, tracklets.bounds
    i, j, first, _ = overlap_runs(tracklets, cut_threshold)
    # a tracklet is cut before its row in the run's first frame; a cut at its
    # own first row splits nothing
    cuts = np.setdiff1d(np.concatenate((i[first], j[first])), bounds)
    if not len(cuts):
        return Tracklets(rows, window, min_len)

    new_bounds = np.union1d(bounds, cuts)
    run_owner = np.searchsorted(bounds, new_bounds[:-1], side="right") - 1
    # a cut tracklet holds more than one run
    fragment = np.bincount(run_owner)[run_owner] > 1
    ids = tracklets.ids[run_owner]
    top = tracklets.ids.max()
    if top > np.iinfo(np.int64).max - fragment.sum():
        ranks = np.unique(ids[~fragment], return_inverse=True)[1]
        ids[~fragment] = ranks + 1
        top = ranks.max(initial=-1) + 1
    ids[fragment] = np.arange(fragment.sum()) + top + 1
    return Tracklets(rows.relabeled(np.repeat(ids, np.diff(new_bounds))), window, min_len)
