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
from .mot_io import Detection, DetectionTable, SequenceMeta
from .tracklets import cut_tracklets, group_tracklets


@dataclass
class RefineSummary:
    tracklets_in: int = 0
    cuts_made: int = 0
    tracklets_associated: int = 0
    candidate_edges: int = 0  # temporally admissible (tracklet, later tracklet) pairs scored
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
            f"candidate edges: {self.candidate_edges}\n"
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
) -> tuple[DetectionTable, RefineSummary]:
    """Run cutter, associator and interpolation over one sequence's detections.

    ``detections`` is a table, used as it is, or any sequence of detections,
    converted to a table once. Returns the refined detections as a new table
    sorted by (frame, id), with float64 values, and a summary of what each
    phase did.
    """
    cfg = cfg or PipelineConfig()
    cfg.validate()
    started = time.perf_counter()
    table = DetectionTable.of(detections)
    summary = RefineSummary(detections_in=len(table))
    tracklets = group_tracklets(table, cfg.endpoint_window, cfg.endpoint_min_len)
    summary.tracklets_in = len(tracklets)
    if cfg.cutter_enabled:
        tracklets = cut_tracklets(tracklets, cfg.cut_threshold, cfg.endpoint_window, cfg.endpoint_min_len)
        summary.cuts_made = len(tracklets) - summary.tracklets_in
    summary.tracklets_associated = len(tracklets)

    domains = build_domains(tracklets, cfg.scores, meta)
    summary.candidate_edges = domains.edge_count
    assignment, _ = solve_with_stats(domains)
    if candidate_dump is not None:
        dump_candidates(domains, candidate_dump)
    summary.links = sum(1 for cand in assignment.values() if cand is not None)
    trajectories = stitch(assignment, tracklets, cfg.endpoint_window, cfg.endpoint_min_len)
    summary.trajectories_out = len(trajectories)

    out = trajectories.rows
    if cfg.interp_enabled:
        filled = fill_gaps(out, cfg.max_gap_size)
        summary.detections_interpolated = len(filled) - len(out)
        out = filled
    out = out.by_frame()
    summary.wall_time_s = time.perf_counter() - started
    return out, summary
