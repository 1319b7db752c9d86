"""Linear gap filling inside stitched trajectories.

A gap is a run of missing frames between two consecutive detections of one
trajectory. Gaps strictly smaller than ``max_gap_size`` are filled by placing
centers at equal spacing between the two edge centers and interpolating width
and height linearly; larger gaps are left alone. Inserted detections carry
conf = 1.
"""

from __future__ import annotations

from typing import Sequence

from .mot_io import Detection


def fill_gaps(trajectory: Sequence[Detection], max_gap_size: int) -> list[Detection]:
    """Fill every gap of size < max_gap_size in one frame-sorted trajectory."""
    if max_gap_size < 1:
        raise ValueError(f"max_gap_size must be positive, got {max_gap_size}")
    out: list[Detection] = []
    for left, right in zip(trajectory, trajectory[1:]):
        if right.frame <= left.frame:
            raise ValueError(f"trajectory frames must be strictly increasing at frame {left.frame}")
        out.append(left)
        size = right.frame - left.frame - 1
        if size < 1 or size >= max_gap_size:
            continue
        (lx, ly), (rx, ry) = left.center, right.center
        span = right.frame - left.frame
        for k in range(1, size + 1):
            a = k / span
            cx, cy = lx + (rx - lx) * a, ly + (ry - ly) * a
            w = left.w + (right.w - left.w) * a
            h = left.h + (right.h - left.h) * a
            out.append(
                Detection(left.frame + k, left.track_id, cx - w / 2.0, cy - h / 2.0, w, h, conf=1.0)
            )
    if trajectory:
        out.append(trajectory[-1])
    return out

