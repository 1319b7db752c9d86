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
    """Intersection over union of two (x, y, w, h) boxes, in [0, 1]; 0 disjoint.

    Rounding can push the raw ratio of two (near-)identical boxes a few ulps
    past 1, which would make the distance ``1 - iou`` negative; it is clamped.
    """
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return min(inter / (aw * ah + bw * bh - inter), 1.0)


def iou_pairs(boxes_a, boxes_b) -> np.ndarray:
    """Element-wise IoU of two box stacks ``(x, y, w, h)`` of broadcastable arrays, clamped like :func:`iou`.

    Each stack holds one array per box column (a ``(4, ...)`` array or a
    4-tuple). Equals :func:`iou` bit for bit on every pair of boxes with
    positive sizes.
    """
    ax, ay, aw, ah = boxes_a
    bx, by, bw, bh = boxes_b
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    return np.minimum(inter / (aw * ah + bw * bh - inter), 1.0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) and (M, 4) arrays of (x, y, w, h) boxes, clamped like :func:`iou`."""
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    return iou_pairs(boxes_a.T[:, :, None], boxes_b.T[:, None, :])


def _window_means(columns: Sequence[np.ndarray], starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.mean`` of each column over each window ``[starts[k], starts[k] + lengths[k])``, shape (columns, windows).

    The windows of one length are gathered into one C-contiguous matrix; its
    mean along axis 1 sums and rounds every row exactly as ``np.mean`` does on
    that window alone.
    """
    out = np.empty((len(columns), len(starts)))
    for length in np.unique(lengths).tolist():
        pick = np.flatnonzero(lengths == length)
        idx = starts[pick, None] + np.arange(length)
        for row, column in zip(out, columns):
            row[pick] = np.mean(column[idx], axis=1)
    return out


def _window_velocities(rows: DetectionTable, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean per-step center velocity over each window of rows, shape (2, windows).

    Each step is the center displacement between consecutive rows over their
    frame delta, which keeps the velocity right across internal frame gaps.
    """
    out = np.empty((2, len(starts)))
    steps = np.maximum(lengths - 1, 0)
    for length in np.unique(steps).tolist():
        pick = np.flatnonzero(steps == length)
        before = starts[pick, None] + np.arange(length)
        after = before + 1
        dt = rows.frame[after] - rows.frame[before]
        for row, pos, size in zip(out, (rows.x, rows.y), (rows.w, rows.h)):
            centers_before = pos[before] + size[before] / 2.0
            centers_after = pos[after] + size[after] / 2.0
            row[pick] = np.mean((centers_after - centers_before) / dt, axis=1)
    return out


def _summaries(
    rows: DetectionTable, bounds: Sequence[int], window: int, min_len: int
) -> list[tuple[EndpointSummary, EndpointSummary]]:
    """The endpoint summaries of every run ``rows[bounds[k]:bounds[k + 1]]`` (see :func:`build_endpoints`)."""
    lo = np.asarray(bounds[:-1], dtype=np.int64)
    n = np.diff(np.asarray(bounds, dtype=np.int64))
    last = lo + n - 1
    long_runs = n >= min_len
    # head rows[1:1 + window] and tail rows[n - 1 - window:n - 1], cut by list slicing rules
    tail = n - 1 - window
    tail = np.where(tail < 0, np.maximum(tail + n, 0), tail)
    start_at = lo + np.where(long_runs, 1, 0)
    start_len = np.where(long_runs, np.minimum(window, n - 1), np.minimum(n, 2))
    end_at = lo + np.where(long_runs, tail, np.maximum(n - 2, 0))
    end_len = np.where(long_runs, np.maximum(n - 1 - tail, 0), np.minimum(n, 2))

    boxes = (rows.x, rows.y, rows.w, rows.h)
    start_box = np.stack([c[lo] for c in boxes])
    end_box = np.stack([c[last] for c in boxes])
    start_box[:, long_runs] = _window_means(boxes, start_at[long_runs], start_len[long_runs])
    end_box[:, long_runs] = _window_means(boxes, end_at[long_runs], end_len[long_runs])
    start_velocity = np.zeros((2, len(n)))  # a single detection does not move
    end_velocity = np.zeros((2, len(n)))
    moving = n >= 2
    start_velocity[:, moving] = _window_velocities(rows, start_at[moving], start_len[moving])
    end_velocity[:, moving] = _window_velocities(rows, end_at[moving], end_len[moving])

    return [
        (EndpointSummary(f0, tuple(b0), tuple(v0)), EndpointSummary(f1, tuple(b1), tuple(v1)))
        for f0, b0, v0, f1, b1, v1 in zip(
            rows.frame[lo].tolist(), start_box.T.tolist(), start_velocity.T.tolist(),
            rows.frame[last].tolist(), end_box.T.tolist(), end_velocity.T.tolist(),
        )
    ]


def build_endpoints(
    detections: Sequence[Detection],
    window: int = 6,
    min_len: int = 10,
) -> tuple[EndpointSummary, EndpointSummary]:
    """Summarize a frame-sorted detection run at both ends.

    For runs of at least ``min_len`` detections the start summary averages the
    ``window`` boxes following the first one (and the velocities between them);
    the end summary mirrors this with the ``window`` boxes preceding the last.
    Shorter runs fall back to the end boxes themselves, with the velocity taken
    between the two outermost detections (zero for a single detection).
    Windows are cut with list slicing rules, and each mean is ``np.mean`` over
    the window's values in row order.
    """
    rows = DetectionTable.of(detections)
    if not len(rows):
        raise ValueError("cannot summarize an empty detection list")
    return _summaries(rows, [0, len(rows)], window, min_len)[0]


def make_tracklet(tid: int, detections: Sequence[Detection], window: int = 6, min_len: int = 10) -> Tracklet:
    """Build a tracklet from frame-sorted detections, computing its endpoint summaries."""
    rows = DetectionTable.of(detections)
    return Tracklet(tid, rows, *build_endpoints(rows, window, min_len))


def make_tracklets(rows: DetectionTable, bounds: Sequence[int], window: int = 6, min_len: int = 10) -> list[Tracklet]:
    """One tracklet per frame-sorted run ``rows[bounds[k]:bounds[k + 1]]``, named by the run's track id.

    The endpoint summaries of all runs are computed together, equal to
    :func:`make_tracklet` on each run.
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
    :func:`build_endpoints`). The tracklets are consecutive slices of one
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


def _overlapping_pairs(boxes: np.ndarray, ends: np.ndarray, cut_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The position pairs ``(i, j)``, ``i < j < ends[i]``, whose boxes reach ``iou >= cut_threshold``.

    ``boxes`` is a (4, N) array of (x, y, w, h) rows; the pairs are scored in
    chunks of at most ``_PAIR_CHUNK`` pairs (or one row's, if more).
    """
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
        hit = iou_pairs(np.repeat(boxes[:, lo:hi], sizes, axis=1), boxes.take(j, axis=1)) >= cut_threshold
        hits_i.append(np.repeat(np.arange(lo, hi), sizes)[hit])
        hits_j.append(j[hit])
        lo = hi
    return np.concatenate(hits_i), np.concatenate(hits_j)


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

    The overlapping pairs are found in one sweep over all detections sorted
    by (frame, x): a detection is scored only against the later ones of its
    frame that start left of its right edge, which include every pair with a
    positive intersection. The candidates are scored in bounded chunks, and
    the result does not depend on the chunk size.
    """
    if not (0.0 < cut_threshold <= 1.0):
        raise ValueError(f"cutter threshold must lie in (0, 1], got {cut_threshold}")
    tracklets = list(tracklets)
    rows = DetectionTable.concat(t.detections for t in tracklets)
    order, ends = _sweep(rows.frame, rows.x, rows.x + rows.w)
    frames = rows.frame[order]
    owners = np.repeat(np.arange(len(tracklets)), [len(t) for t in tracklets])[order]
    boxes = np.stack([column[order] for column in (rows.x, rows.y, rows.w, rows.h)])
    i, j = _overlapping_pairs(boxes, ends, cut_threshold)

    # one row per (tracklet pair, frame) with a hit, sorted; a hit is a rising
    # edge unless the same pair also had one in the frame before. A pair with
    # two hits in one frame (a tracklet that repeats a frame) cuts there
    # anyway: the second hit finds the pair overlapping in this frame, not in
    # the one before.
    ti, tj = owners[i], owners[j]
    pair_frames = np.stack([np.minimum(ti, tj), np.maximum(ti, tj), frames[i]], axis=1)
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
