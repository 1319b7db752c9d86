"""The three-phase refinement pipeline over in-memory detections.

Cut suspicious tracklets (optional), re-associate all tracklets globally
(always), fill small trajectory gaps (optional). File handling and flag
parsing live in :mod:`trackstitch.cli`; this module is the library surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, TextIO

from .associator import build_domains, dump_candidates, solve_with_stats, stitch
from .config import PipelineConfig
from .interpolate import fill_gaps
from .mot_io import Detection, SequenceMeta
from .tracklets import cut_tracklets, group_tracklets


@dataclass
class RefineSummary:
    tracklets_in: int = 0
    cuts_made: int = 0
    tracklets_associated: int = 0
    links: int = 0
    trajectories_out: int = 0
    detections_in: int = 0
    detections_interpolated: int = 0
    wall_time_s: float = 0.0

    def format(self) -> str:
        return (
            f"tracklets in: {self.tracklets_in}\n"
            f"cuts made: {self.cuts_made}\n"
            f"tracklets associated: {self.tracklets_associated}\n"
            f"links formed: {self.links}\n"
            f"trajectories out: {self.trajectories_out}\n"
            f"detections in: {self.detections_in}\n"
            f"detections interpolated: {self.detections_interpolated}\n"
            f"wall time: {self.wall_time_s:.3f} s\n"
        )


def refine_detections(
    detections: Sequence[Detection],
    meta: SequenceMeta,
    cfg: PipelineConfig | None = None,
    candidate_dump: TextIO | None = None,
) -> tuple[list[Detection], RefineSummary]:
    """Run cutter, associator and interpolation over one sequence's detections.

    Returns the refined detections sorted by (frame, id) and a summary of what
    each phase did.
    """
    cfg = cfg or PipelineConfig()
    cfg.validate()
    started = time.perf_counter()
    summary = RefineSummary(detections_in=len(detections))
    if not detections:
        summary.wall_time_s = time.perf_counter() - started
        return [], summary

    tracklets = group_tracklets(detections, cfg.endpoint_window, cfg.endpoint_min_len)
    summary.tracklets_in = len(tracklets)
    if cfg.cutter_enabled:
        tracklets = cut_tracklets(tracklets, cfg.cut_threshold, cfg.endpoint_window, cfg.endpoint_min_len)
        summary.cuts_made = len(tracklets) - summary.tracklets_in
    summary.tracklets_associated = len(tracklets)

    succ_vars = build_domains(tracklets, cfg.scores, meta)
    assignment, _ = solve_with_stats(succ_vars)
    if candidate_dump is not None:
        dump_candidates(succ_vars, cfg.scores, candidate_dump)
    summary.links = sum(1 for cand in assignment.values() if cand is not None)
    trajectories = stitch(assignment, tracklets, cfg.endpoint_window, cfg.endpoint_min_len)
    summary.trajectories_out = len(trajectories)

    out: list[Detection] = []
    for traj in trajectories:
        dets = list(traj.detections)
        if cfg.interp_enabled:
            filled = fill_gaps(dets, cfg.max_gap_size)
            summary.detections_interpolated += len(filled) - len(dets)
            dets = filled
        out.extend(dets)
    out.sort(key=lambda d: (d.frame, d.track_id))
    summary.wall_time_s = time.perf_counter() - started
    return out, summary
