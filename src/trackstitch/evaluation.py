"""Desk-scale tracking metrics: MOTA and IDF1 against a ground truth.

MOTA follows the CLEAR protocol: per-frame matching that carries over the
previous frame's pairs while they still overlap, completes with an optimal
bipartite matching on the rest, and accumulates false positives, misses and
identity switches. IDF1 matches ground-truth and predicted trajectory ids
globally, maximizing identity-consistent detection matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mot_io import Detection
from .tracklets import iou_matrix


@dataclass
class FrameMatching:
    """Matching outcome of one frame during CLEAR accumulation."""

    frame: int
    matches: list  # (gt_id, pred_id) pairs
    false_positives: int
    false_negatives: int
    id_switches: int


def _by_frame(dets: Iterable[Detection]) -> dict[int, dict[int, Detection]]:
    frames: dict[int, dict[int, Detection]] = {}
    for d in dets:
        per = frames.setdefault(d.frame, {})
        if d.track_id in per:
            raise ValueError(f"id {d.track_id} appears twice in frame {d.frame}")
        per[d.track_id] = d
    return frames


def _boxes(dets: Iterable[Detection]) -> np.ndarray:
    return np.array([[d.x, d.y, d.w, d.h] for d in dets], dtype=float).reshape(-1, 4)


def clear_frame_matchings(
    gt: Sequence[Detection],
    pred: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> list[FrameMatching]:
    """Run the per-frame CLEAR matching and return one record per frame."""
    if not gt:
        raise ValueError("ground truth is empty; metrics are undefined")
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    prev: dict[int, int] = {}
    last_match: dict[int, int] = {}
    out = []
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g = gt_frames.get(frame, {})
        p = pred_frames.get(frame, {})
        g_row = {gid: r for r, gid in enumerate(g)}
        p_col = {pid: c for c, pid in enumerate(p)}
        m = iou_matrix(_boxes(g.values()), _boxes(p.values()))
        matches: dict[int, int] = {}
        # keep last frame's pairs while they still overlap
        for gid, pid in prev.items():
            if gid in g and pid in p and m[g_row[gid], p_col[pid]] >= iou_threshold:
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
    if not gt:
        raise ValueError("ground truth is empty; metrics are undefined")
    if not pred:
        return 0.0
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    gt_ids = sorted({d.track_id for d in gt})
    pred_ids = sorted({d.track_id for d in pred})
    g_index = {gid: i for i, gid in enumerate(gt_ids)}
    p_index = {pid: j for j, pid in enumerate(pred_ids)}
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for frame, g in gt_frames.items():
        p = pred_frames.get(frame)
        if not p:
            continue
        m = iou_matrix(_boxes(g.values()), _boxes(p.values()))
        hit_g, hit_p = np.nonzero(m >= iou_threshold)
        g_rows = np.array([g_index[gid] for gid in g])
        p_cols = np.array([p_index[pid] for pid in p])
        np.add.at(overlap, (g_rows[hit_g], p_cols[hit_p]), 1)
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    return 2.0 * idtp / (len(gt) + len(pred))


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
