"""Linear gap filling inside stitched trajectories.

A gap is a run of missing frames between two consecutive detections of one
trajectory. Gaps strictly smaller than ``max_gap_size`` are filled by placing
centers at equal spacing between the two edge centers and interpolating width
and height linearly; larger gaps are left alone. Inserted detections carry
conf = 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .mot_io import Detection, DetectionTable, check_integer


def fill_gaps(trajectory: Sequence[Detection], max_gap_size: int) -> DetectionTable:
    """Fill every gap of size < max_gap_size in frame-sorted trajectories.

    ``trajectory`` holds one trajectory, or several one after the other: each
    run of rows with one track id is a trajectory, and its frames must
    strictly increase (see :meth:`DetectionTable.check_tracks`). Inserted rows
    follow the left edge of their gap, and every value is computed with the
    same float operations, in the same order, as one scalar formula per
    inserted detection.
    """
    check_integer(max_gap_size, "max_gap_size")
    if max_gap_size < 1:
        raise ValueError(f"max_gap_size must be positive, got {max_gap_size}")
    rows = DetectionTable.of(trajectory)
    rows.check_tracks()
    frame, track_id, x, y, w, h, _ = rows.columns
    same = track_id[1:] == track_id[:-1]
    span = np.diff(frame)
    gaps = np.flatnonzero(same & (span >= 2) & (span <= max_gap_size))  # 1 <= span - 1 < max_gap_size
    if not len(gaps):
        return rows

    sizes = span[gaps] - 1
    left = np.repeat(gaps, sizes)
    right = left + 1
    k = np.arange(len(left)) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
    a = k / span[left]
    lx, ly = x[left] + w[left] / 2.0, y[left] + h[left] / 2.0
    rx, ry = x[right] + w[right] / 2.0, y[right] + h[right] / 2.0
    cx, cy = lx + (rx - lx) * a, ly + (ry - ly) * a
    fw = w[left] + (w[right] - w[left]) * a
    fh = h[left] + (h[right] - h[left]) * a
    filled = (frame[left] + k, track_id[left], cx - fw / 2.0, cy - fh / 2.0, fw, fh, np.ones(len(left)))

    # each kept row moves down by the rows inserted before it
    shift = np.zeros(len(rows), dtype=np.int64)
    shift[gaps + 1] = sizes
    kept_at = np.arange(len(rows)) + np.cumsum(shift)
    filled_at = kept_at[left] + k
    columns = []
    for kept, new in zip(rows.columns, filled):
        column = np.empty(len(rows) + len(left), dtype=kept.dtype)
        column[kept_at] = kept
        column[filled_at] = new
        columns.append(column)
    return DetectionTable(*columns)
