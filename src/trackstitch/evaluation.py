"""Desk-scale tracking metrics: MOTA and IDF1 against a ground truth.

Both metrics start from the same *hits*: every pair of a ground-truth row and
a predicted row of one frame whose boxes reach ``iou >= iou_threshold``. Each
side is one :class:`~trackstitch.mot_io.DetectionTable` in (frame, id) order
(:meth:`~trackstitch.mot_io.DetectionTable.by_frame`: a table already in that
order is checked in one pass and used as it is), and a repeated (frame, id)
is rejected (:meth:`~trackstitch.mot_io.DetectionTable.check_tracks`). The
scores therefore depend only on the set of rows, not on their order. One
sweep across the two tables (:func:`~trackstitch.tracklets.cross_overlaps`)
finds every hit with its IoU, bit-identical to its
:func:`~trackstitch.tracklets.iou_matrix` entry; it scores no pair of two
ground-truth or two predicted rows.

The frames that hold a ground-truth or a predicted row are numbered
``0..K-1``: one stable sort of the two sides' frames ranks each row's frame
(:func:`~trackstitch.tracklets.ranks`). This frame index, built once per
call, serves the sweep, the per-frame row bounds and each hit's frame. The
hits are then sorted once, by (ground-truth id, predicted id, numbered
frame) with :func:`~trackstitch.tracklets.pair_runs`, and both metrics read
that order: the hits of one id pair are one block, split into runs of
consecutive numbered frames.

MOTA follows the CLEAR protocol (Bernardin & Stiefelhagen, 2008). Each
frame keeps the previous frame's pairs while they still hit, completes the
matching on the rows left over with the Hungarian step, and counts false
positives, misses and identity switches. A kept pair therefore stays matched
exactly while it hits in consecutive numbered frames: a match made at frame
``k0`` lasts to the end of that pair's run of hits, a *match run*. A frame
takes the Hungarian step only where both a ground-truth row and a predicted
row are left over by the runs alive there; Python visits only those frames,
and the runs carry every other one. The Hungarian step reads its frame's hits
between the rows left over, with the sweep's IoUs, so it matches only pairs at
``iou >= iou_threshold``: it maximizes the number of matches first and their
summed IoU second, as the CLEAR MOT definition and py-motmetrics do.
The true positives are the summed run lengths, and a run is an identity
switch when the previous run of its ground-truth id had another predicted id.

IDF1 matches ground-truth and predicted trajectory ids globally, maximizing
identity-consistent detection matches: the hits counted per id pair, each
count the length of that pair's block. Only the ids that hit take part in
the assignment; an id without hits adds a row or a column of zeros, which
leaves the optimum as it is, and the sum of integer counts is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mot_io import Detection, DetectionTable, check_iou_threshold
from .tracklets import aranges, cross_overlaps, pair_runs, ranks


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


@dataclass(frozen=True)
class _Hits:
    """The checked ground-truth and predicted rows of one sequence, each in (frame, id) order, and their hits.

    ``rank`` is the frame index: the rank of each row's frame among the
    frames holding a ground-truth or a predicted row, those of ``gt`` first.
    Hit h pairs ground-truth row ``g[h]`` with predicted row ``p[h]`` in
    numbered frame ``k[h]`` at IoU ``iou[h]``, the sweep's score, which the
    Hungarian step of its frame reads. The hits are in
    :func:`~trackstitch.tracklets.pair_runs` order, by (gt id, predicted id,
    frame), and run r, the hits of one id pair in consecutive numbered
    frames, is ``bounds[r]:bounds[r + 1]``.
    """

    gt: DetectionTable
    pred: DetectionTable
    rank: np.ndarray
    g: np.ndarray
    p: np.ndarray
    k: np.ndarray
    iou: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, gt: Sequence[Detection], pred: Sequence[Detection], iou_threshold: float) -> _Hits:
        check_iou_threshold(iou_threshold, "iou_threshold")
        if not gt:
            raise ValueError("ground truth is empty; metrics are undefined")
        gt, pred = DetectionTable.of(gt).by_frame(), DetectionTable.of(pred).by_frame()
        gt.check_tracks()
        pred.check_tracks()
        # both sides are sorted by frame: one stable sort merges two runs
        rank = ranks(np.concatenate((gt.frame, pred.frame)))
        g, p, iou = cross_overlaps(gt, pred, iou_threshold, rank)
        k = rank[g]
        order, bounds = pair_runs(gt.track_id[g], pred.track_id[p], k)
        return cls(gt, pred, rank, g[order], p[order], k[order], iou[order], bounds)


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


def _clear_runs(hits: _Hits) -> _Runs:
    """Run the CLEAR matching as match runs (see the module docstring)."""
    gt, pred = hits.gt, hits.pred
    g_rank, p_rank = hits.rank[: len(gt)], hits.rank[len(gt) :]
    n_frames = int(hits.rank.max()) + 1
    frames = np.empty(n_frames, dtype=np.int64)
    frames[g_rank], frames[p_rank] = gt.frame, pred.frame
    # each side's rows of frame f are rows lo[f]..hi[f] - 1 of its sorted table
    n_gt, n_pred = np.bincount(g_rank, minlength=n_frames), np.bincount(p_rank, minlength=n_frames)
    g_hi, p_hi = np.cumsum(n_gt), np.cumsum(n_pred)
    g_lo, p_lo = g_hi - n_gt, p_hi - n_pred

    # each hit learns where its run ends
    g, p, k, bounds = hits.g, hits.p, hits.k, hits.bounds
    run_end = np.repeat(bounds[1:] - 1, np.diff(bounds))
    # the hits of frame f are by_frame[h_lo[f]:h_lo[f + 1]]
    by_frame = np.argsort(k, kind="stable")
    h_lo = np.searchsorted(k[by_frame], np.arange(n_frames + 1))

    matched = np.zeros(len(frames), dtype=np.int64)
    g_taken, p_taken = np.zeros(len(gt), dtype=bool), np.zeros(len(pred), dtype=bool)
    opened = [np.empty(0, dtype=np.int64)]  # the hits that open a match run
    f = _next_contested(0, matched, n_gt, n_pred)
    while f < len(frames):
        g_rows = g_lo[f] + np.flatnonzero(~g_taken[g_lo[f]:g_hi[f]])
        p_rows = p_lo[f] + np.flatnonzero(~p_taken[p_lo[f]:p_hi[f]])
        # the frame's hits between rows left over, placed in their matrix
        h = by_frame[h_lo[f]:h_lo[f + 1]]
        h = h[~g_taken[g[h]] & ~p_taken[p[h]]]
        r, c = np.searchsorted(g_rows, g[h]), np.searchsorted(p_rows, p[h])
        hit_at = np.full((len(g_rows), len(p_rows)), -1)
        hit_at[r, c] = h
        # any hit outweighs the summed IoU of a full matching, so the most
        # matches win, and the summed IoU breaks ties between them
        weight = np.zeros(hit_at.shape)
        weight[r, c] = hits.iou[h] + min(weight.shape) + 1
        at = hit_at[linear_sum_assignment(weight, maximize=True)]
        at = at[at >= 0]
        # each new match holds to the end of its run of hits
        run = aranges(at, run_end[at] - at + 1)
        g_taken[g[run]] = p_taken[p[run]] = True
        # the runs start at frame f or later
        counts = np.bincount(k[run] - f)
        matched[f:f + len(counts)] += counts
        opened.append(at)
        f = _next_contested(f + 1, matched, n_gt, n_pred)

    at = np.concatenate(opened)
    gid, pid, first, last = gt.track_id[g[at]], pred.track_id[p[at]], k[at], k[run_end[at]]
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
    runs = _clear_runs(_Hits.of(gt, pred, iou_threshold))
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


def _idf1(hits: _Hits) -> float:
    if not len(hits.g):
        return 0.0
    # the hits of one id pair are one block of runs
    lo = hits.bounds[:-1]
    gid, pid = hits.gt.track_id[hits.g[lo]], hits.pred.track_id[hits.p[lo]]
    first = np.flatnonzero(np.append(True, (gid[1:] != gid[:-1]) | (pid[1:] != pid[:-1])))
    counts = np.diff(hits.bounds[np.append(first, len(lo))])
    # the ids that hit, numbered; gid is sorted, so its stable sort is one pass
    g_index, p_index = ranks(gid[first]), ranks(pid[first], "quicksort")
    overlap = np.zeros((int(g_index[-1]) + 1, int(p_index.max()) + 1))
    overlap[g_index, p_index] = counts
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = overlap[rows, cols].sum()
    return float(2.0 * idtp / (len(hits.gt) + len(hits.pred)))


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
    runs = _clear_runs(hits)
    tp = int(runs.matched.sum())
    fp, fn, idsw = len(pred) - tp, len(gt) - tp, int(runs.switch.sum())
    return SequenceScores(
        mota=1.0 - (fp + fn + idsw) / len(gt),
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
