"""Desk-scale tracking metrics: MOTA and IDF1 against a ground truth.

MOTA follows the CLEAR protocol: per-frame matching that carries over the
previous frame's pairs while they still overlap, completes with an optimal
bipartite matching on the rest, and accumulates false positives, misses and
identity switches. IDF1 matches ground-truth and predicted trajectory ids
globally, maximizing identity-consistent detection matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mot_io import Detection, DetectionTable
from .tracklets import iou_matrix, run_bounds


@dataclass
class FrameMatching:
    """Matching outcome of one frame during CLEAR accumulation."""

    frame: int
    matches: list  # (gt_id, pred_id) pairs
    false_positives: int
    false_negatives: int
    id_switches: int


def _check_iou_threshold(iou_threshold: float) -> None:
    # a threshold of 0 or less would match boxes that do not overlap at all
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


@dataclass(frozen=True)
class _Frames:
    """One sequence's detections grouped by frame, each frame's rows in input order."""

    ids: list  # track id per row, rows sorted by frame
    boxes: np.ndarray  # (x, y, w, h) per row
    spans: dict  # frame -> (start, stop) of its rows, frames ascending

    @classmethod
    def of(cls, detections: Sequence[Detection]) -> _Frames:
        rows = DetectionTable.of(detections)
        by_key = np.lexsort((rows.track_id, rows.frame))
        same = (np.diff(rows.frame[by_key]) == 0) & (np.diff(rows.track_id[by_key]) == 0)
        if same.any():
            # the first row, in input order, whose (frame, id) came before
            row = by_key[1:][same].min()
            raise ValueError(f"id {rows.track_id[row]} appears twice in frame {rows.frame[row]}")
        order = np.argsort(rows.frame, kind="stable")
        frames = rows.frame[order]
        bounds = run_bounds(frames)
        spans = {frames[lo].item(): (lo, hi) for lo, hi in zip(bounds, bounds[1:])}
        return cls(rows.track_id[order].tolist(), rows.boxes[order], spans)

    def at(self, frame: int) -> tuple[list, np.ndarray]:
        """The ids and boxes of one frame; empty where the frame has no detection."""
        lo, hi = self.spans.get(frame, (0, 0))
        return self.ids[lo:hi], self.boxes[lo:hi]


def clear_frame_matchings(
    gt: Sequence[Detection],
    pred: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> list[FrameMatching]:
    """Run the per-frame CLEAR matching and return one record per frame."""
    _check_iou_threshold(iou_threshold)
    if not gt:
        raise ValueError("ground truth is empty; metrics are undefined")
    gt_frames = _Frames.of(gt)
    pred_frames = _Frames.of(pred)
    prev: dict[int, int] = {}
    last_match: dict[int, int] = {}
    out = []
    for frame in sorted(gt_frames.spans.keys() | pred_frames.spans.keys()):
        g, g_boxes = gt_frames.at(frame)
        p, p_boxes = pred_frames.at(frame)
        g_row = {gid: r for r, gid in enumerate(g)}
        p_col = {pid: c for c, pid in enumerate(p)}
        m = iou_matrix(g_boxes, p_boxes)
        matches: dict[int, int] = {}
        # keep last frame's pairs while they still overlap
        for gid, pid in prev.items():
            if gid in g_row and pid in p_col and m[g_row[gid], p_col[pid]] >= iou_threshold:
                matches[gid] = pid
        rest_g = [gid for gid in g if gid not in matches]
        used = set(matches.values())
        rest_p = [pid for pid in p if pid not in used]
        if rest_g and rest_p:
            rest = m[np.ix_([g_row[i] for i in rest_g], [p_col[j] for j in rest_p])]
            rows, cols = linear_sum_assignment(-rest)
            for r, c in zip(rows, cols):
                if rest[r, c] >= iou_threshold:
                    matches[rest_g[r]] = rest_p[c]
        switches = sum(1 for gid, pid in matches.items() if last_match.get(gid, pid) != pid)
        last_match.update(matches)
        out.append(
            FrameMatching(
                frame,
                sorted(matches.items()),
                false_positives=len(p) - len(matches),
                false_negatives=len(g) - len(matches),
                id_switches=switches,
            )
        )
        prev = matches
    return out


def _clear_totals(gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float) -> tuple[float, int, int, int]:
    """MOTA with the FP, FN and IDSW totals it is computed from."""
    records = clear_frame_matchings(gt, pred, iou_threshold)
    fp = sum(r.false_positives for r in records)
    fn = sum(r.false_negatives for r in records)
    idsw = sum(r.id_switches for r in records)
    return 1.0 - (fp + fn + idsw) / len(gt), fp, fn, idsw


def mota(gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float = 0.5) -> float:
    """Multi-object tracking accuracy: 1 - (FP + FN + IDSW) / total_gt. At most 1."""
    return _clear_totals(gt, pred, iou_threshold)[0]


def idf1(gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float = 0.5) -> float:
    """Identity F1: detection matches consistent under the best global id mapping."""
    _check_iou_threshold(iou_threshold)
    if not gt:
        raise ValueError("ground truth is empty; metrics are undefined")
    if not pred:
        return 0.0
    gt_frames = _Frames.of(gt)
    pred_frames = _Frames.of(pred)
    gt_ids, g_index = np.unique(gt_frames.ids, return_inverse=True)
    pred_ids, p_index = np.unique(pred_frames.ids, return_inverse=True)
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for frame, (lo, hi) in gt_frames.spans.items():
        plo, phi = pred_frames.spans.get(frame, (0, 0))
        if plo == phi:
            continue
        m = iou_matrix(gt_frames.boxes[lo:hi], pred_frames.boxes[plo:phi])
        hit_g, hit_p = np.nonzero(m >= iou_threshold)
        np.add.at(overlap, (g_index[lo:hi][hit_g], p_index[plo:phi][hit_p]), 1)
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    return float(2.0 * idtp / (len(gt) + len(pred)))


@dataclass
class SequenceScores:
    """Aggregated metrics of one sequence."""

    mota: float
    idf1: float
    false_positives: int
    false_negatives: int
    id_switches: int
    num_gt: int
    num_pred: int


def evaluate_sequence(
    gt: Sequence[Detection],
    pred: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> SequenceScores:
    """MOTA, IDF1 and the CLEAR counts of one sequence; ``iou_threshold`` must lie in (0, 1]."""
    _check_iou_threshold(iou_threshold)
    mota_value, fp, fn, idsw = _clear_totals(gt, pred, iou_threshold)
    return SequenceScores(
        mota=mota_value,
        idf1=idf1(gt, pred, iou_threshold),
        false_positives=fp,
        false_negatives=fn,
        id_switches=idsw,
        num_gt=len(gt),
        num_pred=len(pred),
    )


def format_report(sequence: str, scores: SequenceScores) -> str:
    """Human-readable key-value report."""
    return (
        f"sequence: {sequence}\n"
        f"MOTA: {scores.mota:.6f}\n"
        f"IDF1: {scores.idf1:.6f}\n"
        f"FP: {scores.false_positives}\n"
        f"FN: {scores.false_negatives}\n"
        f"IDSW: {scores.id_switches}\n"
        f"gt_detections: {scores.num_gt}\n"
        f"pred_detections: {scores.num_pred}\n"
    )


def report_row(sequence: str, scores: SequenceScores) -> str:
    """Machine-readable row: sequence, MOTA, IDF1, FP, FN, IDSW."""
    return (
        f"{sequence},{scores.mota:.6f},{scores.idf1:.6f},"
        f"{scores.false_positives},{scores.false_negatives},{scores.id_switches}"
    )
