"""Desk-scale tracking metrics: MOTA and IDF1 against a ground truth.

Both metrics start from the same *hits*: every pair of a ground-truth row and
a predicted row of one frame whose boxes reach ``iou >= iou_threshold``. Each
side is one :class:`~trackstitch.mot_io.DetectionTable` sorted by frame, a
frame's rows in input order. One sweep across the two tables
(:func:`~trackstitch.tracklets.cross_overlaps`) finds every hit with its IoU,
bit-identical to its :func:`~trackstitch.tracklets.iou_matrix` entry; it
scores no pair of two ground-truth or two predicted rows.

MOTA follows the CLEAR protocol (Bernardin & Stiefelhagen, 2008). The frames
that hold a ground-truth or a predicted row are numbered ``0..K-1``. Each
frame keeps the previous frame's pairs while they still hit, completes the
matching on the rows left over with the Hungarian step, and counts false
positives, misses and identity switches. A kept pair therefore stays matched
exactly while it hits in consecutive numbered frames: a match made at frame
``k0`` lasts to the end of that pair's run of hits, a *match run*. A frame
takes the Hungarian step only where both a ground-truth row and a predicted
row are left over by the runs alive there; Python visits only those frames,
and the runs carry every other one. The Hungarian step matches only pairs at
``iou >= iou_threshold``: it maximizes the number of matches first and their
summed IoU second, as the CLEAR MOT definition and py-motmetrics do.
The true positives are the summed run lengths, and a run is an identity
switch when the previous run of its ground-truth id had another predicted id.

IDF1 matches ground-truth and predicted trajectory ids globally, maximizing
identity-consistent detection matches: the hits counted per id pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mot_io import Detection, DetectionTable
from .tracklets import aranges, cross_overlaps, iou_matrix, run_bounds


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, imported on the first call.

    Importing scipy takes most of the package's import time, and only the
    evaluation needs it, so ``import trackstitch`` and ``refine`` run without it.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost, maximize=maximize)


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


def _by_frame(detections: Sequence[Detection]) -> DetectionTable:
    """The detections as a table sorted by frame, a frame's rows in input order; ValueError if an id repeats in a frame."""
    rows = DetectionTable.of(detections)
    by_key = np.lexsort((rows.track_id, rows.frame))
    same = (np.diff(rows.frame[by_key]) == 0) & (np.diff(rows.track_id[by_key]) == 0)
    if same.any():
        # the first row, in input order, whose (frame, id) came before
        row = by_key[1:][same].min()
        raise ValueError(f"id {rows.track_id[row]} appears twice in frame {rows.frame[row]}")
    return rows.take(np.argsort(rows.frame, kind="stable"))


@dataclass(frozen=True)
class _Hits:
    """The checked ground-truth and predicted rows of one sequence, each sorted by frame, and their hits."""

    gt: DetectionTable
    pred: DetectionTable
    g: np.ndarray  # ground-truth row of each hit
    p: np.ndarray  # predicted row of each hit

    @classmethod
    def of(cls, gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float) -> _Hits:
        _check_iou_threshold(iou_threshold)
        if not gt:
            raise ValueError("ground truth is empty; metrics are undefined")
        gt, pred = _by_frame(gt), _by_frame(pred)
        g, p, _ = cross_overlaps(gt, pred, iou_threshold)
        return cls(gt, pred, g, p)


@dataclass(frozen=True)
class _Runs:
    """CLEAR's matches as runs: ``gid[r]`` is matched to ``pid[r]`` in frames ``first[r]..last[r]``.

    Frames are counted in ``frames``, the frames holding a ground-truth or a
    predicted row; ``n_gt``, ``n_pred`` and ``matched`` hold each one's row
    counts and match count.
    """

    frames: np.ndarray
    n_gt: np.ndarray
    n_pred: np.ndarray
    matched: np.ndarray
    gid: np.ndarray
    pid: np.ndarray
    first: np.ndarray
    last: np.ndarray
    switch: np.ndarray  # run r is an identity switch


def _next_contested(k: int, matched: np.ndarray, n_gt: np.ndarray, n_pred: np.ndarray) -> int:
    """The first frame at or after ``k`` where a ground-truth and a predicted row are left unmatched, else ``len(matched)``.

    The frames are searched in blocks of doubling size.
    """
    size = 16
    while k < len(matched):
        block = slice(k, k + size)
        contested = np.flatnonzero((n_gt[block] > matched[block]) & (n_pred[block] > matched[block]))
        if len(contested):
            return k + int(contested[0])
        k, size = k + size, 2 * size
    return len(matched)


def _clear_runs(hits: _Hits, iou_threshold: float) -> _Runs:
    """Run the CLEAR matching as match runs (see the module docstring)."""
    gt, pred = hits.gt, hits.pred
    # each side's distinct frames: the first row of each run of its sorted frames
    frames = np.union1d(gt.frame[run_bounds(gt.frame)[:-1]], pred.frame[run_bounds(pred.frame)[:-1]])
    g_lo, g_hi = np.searchsorted(gt.frame, frames), np.searchsorted(gt.frame, frames, side="right")
    p_lo, p_hi = np.searchsorted(pred.frame, frames), np.searchsorted(pred.frame, frames, side="right")
    n_gt, n_pred = g_hi - g_lo, p_hi - p_lo

    # the hits sorted by (gt id, predicted id, frame): the hits of one id pair
    # in consecutive frames form a run of hits, and each learns where its run ends
    k = np.searchsorted(frames, gt.frame[hits.g])
    order = np.lexsort((k, pred.track_id[hits.p], gt.track_id[hits.g]))
    g, p, k = hits.g[order], hits.p[order], k[order]
    gid, pid = gt.track_id[g], pred.track_id[p]
    opens = np.ones(len(k), dtype=bool)
    opens[1:] = (gid[1:] != gid[:-1]) | (pid[1:] != pid[:-1]) | (k[1:] != k[:-1] + 1)
    starts = np.flatnonzero(opens)
    sizes = np.diff(np.append(starts, len(k)))
    run_end = np.repeat(starts + sizes - 1, sizes)
    # a hit is found by its (gt row, predicted row) key
    key = g * len(pred) + p
    by_key = np.argsort(key)
    key = key[by_key]

    matched = np.zeros(len(frames), dtype=np.int64)
    g_taken, p_taken = np.zeros(len(gt), dtype=bool), np.zeros(len(pred), dtype=bool)
    g_boxes, p_boxes = gt.boxes, pred.boxes
    opened = [np.empty(0, dtype=np.int64)]  # the hits that open a match run
    f = _next_contested(0, matched, n_gt, n_pred)
    while f < len(frames):
        g_rows = g_lo[f] + np.flatnonzero(~g_taken[g_lo[f]:g_hi[f]])
        p_rows = p_lo[f] + np.flatnonzero(~p_taken[p_lo[f]:p_hi[f]])
        m = iou_matrix(g_boxes[g_rows], p_boxes[p_rows])
        # any allowed pair outweighs the summed IoU of a full matching, so the
        # most matches win, and the summed IoU breaks ties between them
        allowed = m >= iou_threshold
        rows, cols = linear_sum_assignment(np.where(allowed, m + min(m.shape) + 1, 0.0), maximize=True)
        keep = allowed[rows, cols]
        at = by_key[np.searchsorted(key, g_rows[rows[keep]] * len(pred) + p_rows[cols[keep]])]
        # each new match holds to the end of its run of hits
        run = aranges(at, run_end[at] - at + 1)
        g_taken[g[run]] = p_taken[p[run]] = True
        # the runs start at frame f or later
        counts = np.bincount(k[run] - f)
        matched[f:f + len(counts)] += counts
        opened.append(at)
        f = _next_contested(f + 1, matched, n_gt, n_pred)

    at = np.concatenate(opened)
    gid, pid, first, last = gid[at], pid[at], k[at], k[run_end[at]]
    # a run switches when the previous run of its gt id had another predicted id
    order = np.lexsort((first, gid))
    switch = np.zeros(len(gid), dtype=bool)
    switch[order[1:]] = (gid[order[1:]] == gid[order[:-1]]) & (pid[order[1:]] != pid[order[:-1]])
    return _Runs(frames, n_gt, n_pred, matched, gid, pid, first, last, switch)


def clear_frame_matchings(
    gt: Sequence[Detection],
    pred: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> list[FrameMatching]:
    """Run the CLEAR matching and return one record per frame holding a ground-truth or a predicted row."""
    runs = _clear_runs(_Hits.of(gt, pred, iou_threshold), iou_threshold)
    length = runs.last - runs.first + 1
    k = aranges(runs.first, length)
    gid, pid = np.repeat(runs.gid, length), np.repeat(runs.pid, length)
    order = np.lexsort((gid, k))
    pairs = list(zip(gid[order].tolist(), pid[order].tolist()))
    bounds = np.concatenate(([0], np.cumsum(runs.matched))).tolist()
    switches = np.bincount(runs.first[runs.switch], minlength=len(runs.frames))
    return [
        FrameMatching(frame, pairs[lo:hi], false_positives=fp, false_negatives=fn, id_switches=sw)
        for frame, lo, hi, fp, fn, sw in zip(
            runs.frames.tolist(), bounds, bounds[1:], (runs.n_pred - runs.matched).tolist(),
            (runs.n_gt - runs.matched).tolist(), switches.tolist(),
        )
    ]


def _clear_totals(hits: _Hits, iou_threshold: float) -> tuple[float, int, int, int]:
    """MOTA with the FP, FN and IDSW totals it is computed from."""
    runs = _clear_runs(hits, iou_threshold)
    tp = int(runs.matched.sum())
    fp, fn, idsw = len(hits.pred) - tp, len(hits.gt) - tp, int(runs.switch.sum())
    return 1.0 - (fp + fn + idsw) / len(hits.gt), fp, fn, idsw


def _idf1(hits: _Hits) -> float:
    if not len(hits.pred):
        return 0.0
    gt_ids, g_index = np.unique(hits.gt.track_id, return_inverse=True)
    pred_ids, p_index = np.unique(hits.pred.track_id, return_inverse=True)
    shape = (len(gt_ids), len(pred_ids))
    overlap = np.bincount(g_index[hits.g] * shape[1] + p_index[hits.p], minlength=shape[0] * shape[1])
    overlap = overlap.reshape(shape).astype(float)
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    return float(2.0 * idtp / (len(hits.gt) + len(hits.pred)))


def mota(gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float = 0.5) -> float:
    """Multi-object tracking accuracy: 1 - (FP + FN + IDSW) / total_gt. At most 1."""
    return _clear_totals(_Hits.of(gt, pred, iou_threshold), iou_threshold)[0]


def idf1(gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float = 0.5) -> float:
    """Identity F1: detection matches consistent under the best global id mapping."""
    return _idf1(_Hits.of(gt, pred, iou_threshold))


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
    hits = _Hits.of(gt, pred, iou_threshold)
    mota_value, fp, fn, idsw = _clear_totals(hits, iou_threshold)
    return SequenceScores(
        mota=mota_value,
        idf1=_idf1(hits),
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
