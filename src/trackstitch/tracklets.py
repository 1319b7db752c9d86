"""Tracklet modeling: endpoint summaries and overlap-triggered cutting.

A tracklet is a frame-sorted run of detections sharing one id, summarized at
both ends by a representative box and a center velocity. The first and last
boxes of a tracklet tend to be the least trustworthy (the track usually broke
there), so for long tracklets the summaries average a window of boxes just
inside each end instead of using the end box itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

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
    """A frame-sorted run of same-id detections plus its two endpoint summaries."""

    id: int
    detections: tuple
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


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) and (M, 4) arrays of (x, y, w, h) boxes, clamped like :func:`iou`."""
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    if boxes_a.size == 0 or boxes_b.size == 0:
        return np.zeros((boxes_a.shape[0], boxes_b.shape[0]))
    ax1, ay1 = boxes_a[:, 0], boxes_a[:, 1]
    ax2, ay2 = ax1 + boxes_a[:, 2], ay1 + boxes_a[:, 3]
    bx1, by1 = boxes_b[:, 0], boxes_b[:, 1]
    bx2, by2 = bx1 + boxes_b[:, 2], by1 + boxes_b[:, 3]
    iw = np.minimum(ax2[:, None], bx2) - np.maximum(ax1[:, None], bx1)
    ih = np.minimum(ay2[:, None], by2) - np.maximum(ay1[:, None], by1)
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    areas = boxes_a[:, 2] * boxes_a[:, 3]
    areas_b = boxes_b[:, 2] * boxes_b[:, 3]
    return np.minimum(inter / (areas[:, None] + areas_b - inter), 1.0)


def _mean_box(dets: Sequence) -> Box:
    return (
        float(np.mean([d.x for d in dets])),
        float(np.mean([d.y for d in dets])),
        float(np.mean([d.w for d in dets])),
        float(np.mean([d.h for d in dets])),
    )


def _mean_velocity(dets: Sequence) -> tuple[float, float]:
    # per-step displacement over per-step frame delta, averaged; robust to
    # internal frame gaps
    vxs, vys = [], []
    for a, b in zip(dets, dets[1:]):
        dt = b.frame - a.frame
        (ax, ay), (bx, by) = a.center, b.center
        vxs.append((bx - ax) / dt)
        vys.append((by - ay) / dt)
    return (float(np.mean(vxs)), float(np.mean(vys)))


def build_endpoints(
    detections: Sequence,
    window: int = 6,
    min_len: int = 10,
) -> tuple[EndpointSummary, EndpointSummary]:
    """Summarize a frame-sorted detection run at both ends.

    For runs of at least ``min_len`` detections the start summary averages the
    ``window`` boxes following the first one (and the velocities between them);
    the end summary mirrors this with the ``window`` boxes preceding the last.
    Shorter runs fall back to the end boxes themselves, with the velocity taken
    between the two outermost detections (zero for a single detection).
    """
    if not detections:
        raise ValueError("cannot summarize an empty detection list")
    n = len(detections)
    first, last = detections[0], detections[-1]
    if n >= min_len:
        head = detections[1 : 1 + window]
        tail = detections[n - 1 - window : n - 1]
        start = EndpointSummary(first.frame, _mean_box(head), _mean_velocity(head))
        end = EndpointSummary(last.frame, _mean_box(tail), _mean_velocity(tail))
    elif n >= 2:
        v_start = _mean_velocity(detections[:2])
        v_end = _mean_velocity(detections[-2:])
        start = EndpointSummary(first.frame, first.box, v_start)
        end = EndpointSummary(last.frame, last.box, v_end)
    else:
        start = EndpointSummary(first.frame, first.box, (0.0, 0.0))
        end = EndpointSummary(last.frame, last.box, (0.0, 0.0))
    return start, end


def make_tracklet(tid: int, detections: Sequence, window: int = 6, min_len: int = 10) -> Tracklet:
    """Build a tracklet from frame-sorted detections, computing its endpoint summaries."""
    start, end = build_endpoints(detections, window, min_len)
    return Tracklet(tid, tuple(detections), start, end)


def group_tracklets(
    detections: Iterable,
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> list[Tracklet]:
    """Partition detections by track id into frame-sorted tracklets.

    A track id observed twice in the same frame is a data error. Endpoint
    summaries are computed with the given averaging window (see
    :func:`build_endpoints`).
    """
    groups: dict[int, list] = {}
    for det in detections:
        groups.setdefault(det.track_id, []).append(det)
    out = []
    for tid in sorted(groups):
        dets = sorted(groups[tid], key=lambda d: d.frame)
        for a, b in zip(dets, dets[1:]):
            if a.frame == b.frame:
                raise ValueError(f"({tid},{a.frame}) duplicated: track {tid} has two detections in frame {a.frame}")
        out.append(make_tracklet(tid, dets, endpoint_window, endpoint_min_len))
    return out


def cut_tracklets(
    tracklets: Iterable[Tracklet],
    cut_threshold: float,
    window: int = 6,
    min_len: int = 10,
) -> list[Tracklet]:
    """Cut tracklets wherever two of them start overlapping strongly.

    Frames are scanned in increasing order; whenever two detections from
    distinct tracklets reach ``iou >= cut_threshold`` the two tracklets are cut
    so that the overlapping detections begin new fragments. A pair that was
    already overlapping in the immediately preceding frame does not trigger
    again: one sustained overlap event means one cut per tracklet, at the frame
    where the overlap first appears. Fragments of a cut tracklet get fresh ids
    above the existing maximum; untouched tracklets keep theirs.
    """
    tracklets = list(tracklets)
    by_frame: dict[int, list[tuple[int, object]]] = {}
    for idx, t in enumerate(tracklets):
        for det in t.detections:
            by_frame.setdefault(det.frame, []).append((idx, det))

    cut_frames: dict[int, set[int]] = {}
    last_overlap: dict[tuple[int, int], int] = {}  # tracklet-index pair -> last overlapping frame
    for frame in sorted(by_frame):
        entries = by_frame[frame]
        if len(entries) < 2:
            continue
        boxes = np.array([[d.x, d.y, d.w, d.h] for _, d in entries])
        matrix = iou_matrix(boxes, boxes)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                ti, tj = entries[i][0], entries[j][0]
                if ti == tj or matrix[i, j] < cut_threshold:
                    continue
                pair = (min(ti, tj), max(ti, tj))
                if last_overlap.get(pair) != frame - 1:  # rising edge only
                    cut_frames.setdefault(ti, set()).add(frame)
                    cut_frames.setdefault(tj, set()).add(frame)
                last_overlap[pair] = frame

    next_id = max((t.id for t in tracklets), default=0) + 1
    out = []
    for idx, t in enumerate(tracklets):
        cuts = sorted(f for f in cut_frames.get(idx, ()) if f > t.start.frame)
        if not cuts:
            out.append(t)
            continue
        pieces: list[list] = [[]]
        bounds = iter(cuts)
        bound = next(bounds)
        for det in t.detections:
            while bound is not None and det.frame >= bound:
                pieces.append([])
                bound = next(bounds, None)
            pieces[-1].append(det)
        for piece in pieces:
            dets = [replace(d, track_id=next_id) for d in piece]
            out.append(make_tracklet(next_id, dets, window, min_len))
            next_id += 1
    return out
