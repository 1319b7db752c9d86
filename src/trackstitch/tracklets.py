"""Tracklet modeling: endpoint summaries and overlap-triggered cutting.

A tracklet is a frame-sorted run of detections sharing one id, held as a
slice of a :class:`~trackstitch.mot_io.DetectionTable` and summarized at both
ends by a representative box and a center velocity. The first and last
boxes of a tracklet tend to be the least trustworthy (the track usually broke
there), so for long tracklets the summaries average a window of boxes just
inside each end instead of using the end box itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """Raise ValueError, naming both values by ``names``, unless ``2 <= window < min_len`` (see :func:`make_tracklets`)."""
    if not 2 <= window < min_len:
        w, m = names
        raise ValueError(f"{w} must satisfy 2 <= {w} < {m}, got {w}={window}, {m}={min_len}")


def _window_means(columns: Sequence[np.ndarray], starts: np.ndarray, length: int) -> np.ndarray:
    """``np.mean`` of each column over each window ``[starts[k], starts[k] + length)``, shape (columns, windows).

    The windows are gathered into one C-contiguous matrix; its mean along
    axis 1 sums and rounds every row exactly as ``np.mean`` does on that
    window alone.
    """
    idx = starts[:, None] + np.arange(length)
    return np.stack([np.mean(column[idx], axis=1) for column in columns])


def _summaries(
    rows: DetectionTable, bounds: Sequence[int], window: int, min_len: int
) -> list[tuple[EndpointSummary, EndpointSummary]]:
    """The endpoint summaries of every run ``rows[bounds[k]:bounds[k + 1]]`` (see :func:`make_tracklets`)."""
    check_window(window, min_len)
    lo = np.asarray(bounds[:-1], dtype=np.int64)
    n = np.diff(np.asarray(bounds, dtype=np.int64))
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

    return [
        (EndpointSummary(f0, tuple(b0), tuple(v0)), EndpointSummary(f1, tuple(b1), tuple(v1)))
        for f0, b0, v0, f1, b1, v1 in zip(
            rows.frame[lo].tolist(), start_box.T.tolist(), start_velocity.T.tolist(),
            rows.frame[last].tolist(), end_box.T.tolist(), end_velocity.T.tolist(),
        )
    ]


def make_tracklet(tid: int, detections: Sequence[Detection], window: int = 6, min_len: int = 10) -> Tracklet:
    """Build a tracklet from frame-sorted detections, computing its endpoint summaries (see :func:`make_tracklets`)."""
    rows = DetectionTable.of(detections)
    if not len(rows):
        raise ValueError("tracklet must contain at least one detection")
    return Tracklet(tid, rows, *_summaries(rows, [0, len(rows)], window, min_len)[0])


def make_tracklets(rows: DetectionTable, bounds: Sequence[int], window: int = 6, min_len: int = 10) -> list[Tracklet]:
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
    equal to :func:`make_tracklet` on each run.
    """
    ids = rows.track_id[bounds[:-1]].tolist()
    summaries = _summaries(rows, bounds, window, min_len)
    return [Tracklet(tid, rows[lo:hi], *ends) for tid, lo, hi, ends in zip(ids, bounds, bounds[1:], summaries)]


def run_bounds(keys: np.ndarray) -> list[int]:
    """The row bounds of the runs of equal values in ``keys``: run k is ``[bounds[k], bounds[k + 1])``."""
    if not len(keys):
        return [0]
    return [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]


def group_tracklets(
    detections: Iterable[Detection],
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> list[Tracklet]:
    """Partition detections by track id into frame-sorted tracklets, in id order.

    A track id observed twice in the same frame is a data error. Endpoint
    summaries are computed with the given averaging window (see
    :func:`make_tracklets`). The tracklets are consecutive slices of one
    table sorted by (id, frame).
    """
    table = DetectionTable.of(detections)
    rows = table.take(np.lexsort((table.frame, table.track_id)))
    ids, frames = rows.track_id, rows.frame
    doubled = np.flatnonzero((ids[1:] == ids[:-1]) & (frames[1:] == frames[:-1]))
    if len(doubled):
        tid, frame = ids[doubled[0]].item(), frames[doubled[0]].item()
        raise ValueError(f"({tid},{frame}) duplicated: track {tid} has two detections in frame {frame}")
    return make_tracklets(rows, run_bounds(ids), endpoint_window, endpoint_min_len)


# most candidate pairs scored at once: the temporaries take about 100 bytes
# per pair, and at this size they stay in the processor's cache
_PAIR_CHUNK = 1 << 15


def _sweep(frames: np.ndarray, x: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by (frame, x) and find, for each, the first row of its frame at or right of its ``right``.

    Returns ``order`` and ``ends``: row ``order[k]`` is the k-th in (frame, x)
    order, and ``ends[k]`` is the position of the first row of its frame with
    ``x >= right[order[k]]``, or the end of its frame if there is none. Both
    edges are replaced by their ranks among all edges, so that (frame, edge)
    becomes one exact integer key, and one binary search finds every end.
    """
    n = len(x)
    frame_rank = np.unique(frames, return_inverse=True)[1]
    edges, edge_rank = np.unique(np.concatenate((x, right)), return_inverse=True)
    base = frame_rank * len(edges)
    start_key = base + edge_rank[:n]
    order = np.argsort(start_key)
    ends = np.searchsorted(start_key[order], (base + edge_rank[n:])[order])
    return order, ends


def same_frame_overlaps(frames: np.ndarray, boxes: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs ``(i, j)``, ``i < j``, of one frame whose boxes reach ``iou >= threshold`` (> 0).

    ``frames`` holds each row's frame and ``boxes`` is a (4, N) stack of the
    (x, y, w, h) columns. The rows are swept in (frame, x) order (see
    :func:`_sweep`): a row is scored only against the later rows of its frame
    that start left of its right edge, which include every pair with a
    positive intersection. The candidates are scored by :func:`iou_pairs` in
    chunks of at most ``_PAIR_CHUNK`` pairs (or one row's, if more), so each
    hit's IoU is bit-identical to its :func:`iou_matrix` entry, and the result
    does not depend on the chunk size. The pairs come in sweep order.
    """
    order, ends = _sweep(frames, boxes[0], boxes[0] + boxes[2])
    boxes = boxes[:, order]
    counts = np.maximum(ends - np.arange(len(ends)) - 1, 0)
    totals = np.cumsum(counts)
    hits_i, hits_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < len(ends):
        done = totals[lo] - counts[lo]
        hi = max(int(np.searchsorted(totals, done + _PAIR_CHUNK, side="right")), lo + 1)
        sizes = counts[lo:hi]
        # position lo + k is paired with positions lo + k + 1 ... lo + k + sizes[k]
        j = np.arange(totals[hi - 1] - done) + np.repeat(np.arange(lo + 1, hi + 1) - (totals[lo:hi] - sizes - done), sizes)
        hit = iou_pairs(np.repeat(boxes[:, lo:hi], sizes, axis=1), boxes.take(j, axis=1)) >= threshold
        hits_i.append(np.repeat(np.arange(lo, hi), sizes)[hit])
        hits_j.append(j[hit])
        lo = hi
    i, j = order[np.concatenate(hits_i)], order[np.concatenate(hits_j)]
    return np.minimum(i, j), np.maximum(i, j)


def cut_tracklets(
    tracklets: Iterable[Tracklet],
    cut_threshold: float,
    window: int = 6,
    min_len: int = 10,
) -> list[Tracklet]:
    """Cut tracklets wherever two of them start overlapping strongly.

    Whenever two detections from distinct tracklets in one frame reach
    ``iou >= cut_threshold`` (which must lie in (0, 1]) the two tracklets are
    cut so that the overlapping detections begin new fragments. A pair that
    was already overlapping in the immediately preceding frame does not
    trigger again: one sustained overlap event means one cut per tracklet, at
    the frame where the overlap first appears. Fragments of a cut tracklet get
    fresh ids above the existing maximum; untouched tracklets keep theirs.

    The overlapping pairs are found by :func:`same_frame_overlaps` in one
    sweep over all detections.
    """
    if not (0.0 < cut_threshold <= 1.0):
        raise ValueError(f"cutter threshold must lie in (0, 1], got {cut_threshold}")
    check_window(window, min_len)
    tracklets = list(tracklets)
    rows = DetectionTable.concat(t.detections for t in tracklets)
    i, j = same_frame_overlaps(rows.frame, np.stack((rows.x, rows.y, rows.w, rows.h)), cut_threshold)
    owners = np.repeat(np.arange(len(tracklets)), [len(t) for t in tracklets])

    # one row per (tracklet pair, frame) with a hit, sorted; a hit is a rising
    # edge unless the same pair also had one in the frame before. A pair with
    # two hits in one frame (a tracklet that repeats a frame) cuts there
    # anyway: the second hit finds the pair overlapping in this frame, not in
    # the one before. The owners ascend with the rows, so i < j gives ti <= tj.
    ti, tj = owners[i], owners[j]
    pair_frames = np.stack([ti, tj, rows.frame[i]], axis=1)
    hits, repeats = np.unique(pair_frames[ti != tj], axis=0, return_counts=True)
    continued = np.zeros(len(hits), dtype=bool)
    continued[1:] = (hits[1:, 0] == hits[:-1, 0]) & (hits[1:, 1] == hits[:-1, 1]) & (hits[1:, 2] - 1 == hits[:-1, 2])
    cut_frames: dict[int, set[int]] = {}
    for a, b, frame in hits[~continued | (repeats > 1)].tolist():
        cut_frames.setdefault(a, set()).add(frame)
        cut_frames.setdefault(b, set()).add(frame)

    # the fragments of all cut tracklets, as runs of one relabeled table
    pieces, sizes, piece_count = [], [], {}
    for idx, t in enumerate(tracklets):
        cuts = sorted(f for f in cut_frames.get(idx, ()) if f > t.start.frame)
        if cuts:
            # every cut frame is one of the tracklet's own frames, so no piece is empty
            splits = [0, *np.searchsorted(t.detections.frame, cuts).tolist(), len(t)]
            pieces.append(t.detections)
            sizes += np.diff(splits).tolist()
            piece_count[idx] = len(splits) - 1
    if not pieces:
        return tracklets
    first_id = max(t.id for t in tracklets) + 1
    piece_ids = np.repeat(np.arange(first_id, first_id + len(sizes)), sizes)
    piece_rows = DetectionTable.concat(pieces).relabeled(piece_ids)
    fragments = iter(make_tracklets(piece_rows, np.cumsum([0, *sizes]).tolist(), window, min_len))
    out = []
    for idx, t in enumerate(tracklets):
        if idx in piece_count:
            out.extend(next(fragments) for _ in range(piece_count[idx]))
        else:
            out.append(t)
    return out
