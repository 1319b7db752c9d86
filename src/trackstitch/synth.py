"""Synthetic ground truth and controlled corruption for pipeline verification.

``generate`` builds constant-velocity trajectories (optionally curving, and
optionally aimed pairwise at common points to force crossings) on a pixel
canvas. ``corrupt`` degrades such a ground truth the way real trackers do:
it fragments trajectories, swaps identities at crossings and drops detections,
while logging every event so tests can check that the pipeline undoes them.

Both return a :class:`~trackstitch.mot_io.DetectionTable` and work on
columns: ``corrupt`` keeps each trajectory as an array of row indices, and
``find_crossings`` finds every overlapping pair of one frame with the same
sweep the cutter and the evaluation use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .mot_io import Detection, DetectionTable, SequenceMeta, atomic_writer
from .tracklets import run_bounds, same_frame_overlaps


class ScenarioError(ValueError):
    """The scenario cannot be realized on the requested canvas."""


# object size ranges, pixels (pedestrian-like aspect)
_MIN_W, _MAX_W = 30.0, 60.0
_MIN_H, _MAX_H = 60.0, 110.0


@dataclass
class ScenarioConfig:
    """Parameters of one synthetic sequence; output is deterministic per seed."""

    num_objects: int
    num_frames: int
    fps: float = 30.0
    img_width: int = 1920
    img_height: int = 1080
    crossings: int = 0
    turn_rate: float = 0.0  # radians/frame applied to the velocity direction
    min_speed: float = 0.3
    max_speed: float = 1.5
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ScenarioError` unless the objects fit the canvas and the motion is finite; NaN fails each check."""
        n, W, H = self.num_objects, self.img_width, self.img_height
        if n < 1 or self.num_frames < 1:
            raise ScenarioError("need at least one object and one frame")
        if not 0 <= 2 * self.crossings <= n:
            raise ScenarioError(f"crossings must lie in [0, {n // 2}] for {n} objects, got {self.crossings}")
        if W - 2 <= _MAX_W or H - 2 <= _MAX_H:
            raise ScenarioError(f"canvas {W}x{H} cannot hold objects up to {_MAX_W:.0f}x{_MAX_H:.0f}")
        if n * _MAX_W * _MAX_H > 0.5 * W * H:
            raise ScenarioError(f"{n} objects is too many for a {W}x{H} canvas")
        if not 0.0 <= self.min_speed <= self.max_speed < math.inf:
            raise ScenarioError(f"speeds must be finite with 0 <= min_speed <= max_speed, got {self.min_speed} and {self.max_speed}")
        if not math.isfinite(self.turn_rate):
            raise ScenarioError(f"turn_rate must be finite, got {self.turn_rate}")


@dataclass
class CorruptionConfig:
    """Probabilities of tracker-like failures; deterministic per seed."""

    fragment_prob: float = 0.0  # cut chance per trajectory per crossing it is part of
    swap_prob: float = 0.0  # id exchange chance per crossing
    dropout: float = 0.0  # removal chance per detection
    random_cuts_per_track: int = 0  # extra cuts at random interior frames
    gap_frames: tuple[int, int] = (0, 0)  # detections deleted at each cut, inclusive range
    crossing_iou: float = 0.3  # overlap level that counts as a crossing
    seed: int = 0

    def validate(self) -> None:
        for name in ("fragment_prob", "swap_prob", "dropout"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        lo, hi = self.gap_frames
        if lo < 0 or hi < lo:
            raise ValueError(f"gap_frames must satisfy 0 <= lo <= hi, got {self.gap_frames}")
        if self.random_cuts_per_track < 0:
            raise ValueError(f"random_cuts_per_track must be nonnegative, got {self.random_cuts_per_track}")
        if not 0.0 < self.crossing_iou <= 1.0:
            raise ValueError(f"crossing_iou must lie in (0, 1], got {self.crossing_iou}")


@dataclass
class CutRecord:
    source: int  # corrupted-track container the cut split
    frame: int  # first missing/relabeled frame
    gap: int  # detections deleted at the cut
    left_id: int  # output id of the fragment ending before the cut
    right_id: int  # output id of the fragment starting at frame + gap


@dataclass
class SwapRecord:
    source_a: int
    source_b: int
    frame: int


@dataclass
class DropRecord:
    source: int
    frame: int


@dataclass
class FragmentRecord:
    id: int
    source: int
    first_frame: int
    last_frame: int


@dataclass
class CorruptionLog:
    """Everything corrupt() did, in terms of output ids."""

    cuts: list = field(default_factory=list)
    swaps: list = field(default_factory=list)
    drops: list = field(default_factory=list)
    fragments: list = field(default_factory=list)

    def write_tsv(self, path: str | Path) -> None:
        lines = ["event\tsource\tframe\tgap\tleft\tright"]
        for c in self.cuts:
            lines.append(f"cut\t{c.source}\t{c.frame}\t{c.gap}\t{c.left_id}\t{c.right_id}")
        for s in self.swaps:
            lines.append(f"swap\t{s.source_a},{s.source_b}\t{s.frame}\t\t\t")
        for d in self.drops:
            lines.append(f"drop\t{d.source}\t{d.frame}\t\t\t")
        for f in self.fragments:
            lines.append(f"fragment\t{f.source}\t{f.first_frame}-{f.last_frame}\t\t{f.id}\t")
        with atomic_writer(path) as stream:
            stream.write("\n".join(lines) + "\n")


def _feasible_start(extent: float, size: float, disp: np.ndarray) -> tuple[float, float]:
    # band of start centers keeping box >= 1 px inside [0, extent] for the
    # whole displacement path; empty band -> (nan, nan)
    lo = 1 + size / 2.0 - disp.min()
    hi = extent - 1 - size / 2.0 - disp.max()
    if hi < lo:
        return (math.nan, math.nan)
    return (lo, hi)


def _plan_paths(cfg: ScenarioConfig, rng: np.random.Generator) -> list[tuple[float, float, float, float, np.ndarray]]:
    """Size, start center and displacement path of every object, in object order: (w, h, cx, cy, disp)."""
    W, H, T = cfg.img_width, cfg.img_height, cfg.num_frames
    pending_cross = []  # (object index, partner index) scheduling
    for k in range(cfg.crossings):
        pending_cross.append((2 * k, 2 * k + 1))
    crossing_member = {i for pair in pending_cross for i in pair}

    # (w, h, start center, displacement path) per object
    plans: dict[int, tuple] = {}
    for obj in range(cfg.num_objects):
        if obj in crossing_member:
            continue  # planned with its partner below
        w = float(rng.uniform(_MIN_W, _MAX_W))
        h = float(rng.uniform(_MIN_H, _MAX_H))
        placed = False
        for _ in range(25):
            speed = rng.uniform(cfg.min_speed, cfg.max_speed)
            theta = rng.uniform(0, 2 * math.pi)
            disp = _displacements(speed, theta, cfg.turn_rate, T)
            band_x = _feasible_start(W, w, disp[:, 0])
            band_y = _feasible_start(H, h, disp[:, 1])
            if not (math.isnan(band_x[0]) or math.isnan(band_y[0])):
                cx = float(rng.uniform(*band_x))
                cy = float(rng.uniform(*band_y))
                plans[obj] = (w, h, cx, cy, disp)
                placed = True
                break
        if not placed:
            # slowest speed, clamped path
            disp = _displacements(cfg.min_speed, rng.uniform(0, 2 * math.pi), cfg.turn_rate, T)
            cx = float(rng.uniform(1 + w / 2, W - 1 - w / 2))
            cy = float(rng.uniform(1 + h / 2, H - 1 - h / 2))
            plans[obj] = (w, h, cx, cy, disp)

    for a, b in pending_cross:
        # same size for both: boxes coincide exactly at the crossing frame
        wa = wb = float(rng.uniform(_MIN_W, _MAX_W))
        ha = hb = float(rng.uniform(_MIN_H, _MAX_H))
        placed = False
        for _ in range(50):
            fc = int(rng.integers(int(0.35 * T) + 1, max(int(0.65 * T), int(0.35 * T) + 2)))
            px = float(rng.uniform(0.3 * W, 0.7 * W))
            py = float(rng.uniform(0.3 * H, 0.7 * H))
            theta_a = float(rng.uniform(0, 2 * math.pi))
            theta_b = theta_a + float(rng.uniform(math.pi / 3, 2 * math.pi / 3))
            speed_a = float(rng.uniform(cfg.min_speed, cfg.max_speed))
            speed_b = float(rng.uniform(cfg.min_speed, cfg.max_speed))
            ok = True
            candidate = []
            for obj, w, h, theta, speed in ((a, wa, ha, theta_a, speed_a), (b, wb, hb, theta_b, speed_b)):
                disp = _displacements(speed, theta, 0.0, T)
                cx = px - disp[fc - 1, 0]
                cy = py - disp[fc - 1, 1]
                band_x = _feasible_start(W, w, disp[:, 0])
                band_y = _feasible_start(H, h, disp[:, 1])
                if math.isnan(band_x[0]) or not (band_x[0] <= cx <= band_x[1]) or not (band_y[0] <= cy <= band_y[1]):
                    ok = False
                    break
                candidate.append((obj, (w, h, cx, cy, disp)))
            if ok:
                for obj, plan in candidate:
                    plans[obj] = plan
                placed = True
                break
        if not placed:
            raise ScenarioError(f"could not construct a crossing for objects {a + 1} and {b + 1}")

    return [plans[obj] for obj in range(cfg.num_objects)]


def generate(cfg: ScenarioConfig) -> tuple[DetectionTable, SequenceMeta]:
    """Build the ground truth of the configured scenario as a detection table.

    Objects move at constant speed (rotated by ``turn_rate`` each frame when
    set). The first ``2 * crossings`` objects are aimed pairwise at a common
    point so their boxes coincide at one frame. Trajectories stay at least one
    pixel inside the canvas; when a sampled velocity cannot fit it is re-drawn,
    and as a last resort the path is clamped at the borders. The rows run
    object by object (track ids 1..n), each object's in frame order.
    """
    cfg.validate()
    W, H, T = cfg.img_width, cfg.img_height, cfg.num_frames
    w, h, cx, cy, disp = zip(*_plan_paths(cfg, np.random.default_rng(cfg.seed)))
    # every object's center path at once, clipped one pixel inside the canvas
    half = np.stack((w, h), axis=1)[:, None, :] / 2.0
    centers = np.stack((cx, cy), axis=1)[:, None, :] + np.stack(disp)
    corners = np.clip(centers, 1 + half, np.array([W, H]) - 1 - half) - half
    n = cfg.num_objects
    gt = DetectionTable(
        np.tile(np.arange(1, T + 1), n), np.repeat(np.arange(1, n + 1), T),
        corners[:, :, 0], corners[:, :, 1], np.repeat(w, T), np.repeat(h, T), np.ones(n * T),
    )
    meta = SequenceMeta(fps=cfg.fps, img_width=W, img_height=H, num_frames=T)
    return gt, meta


def _displacements(speed: float, theta: float, turn_rate: float, num_frames: int) -> np.ndarray:
    """Cumulative center displacement from the start, frame by frame; shape (T, 2)."""
    angles = theta + turn_rate * np.arange(num_frames - 1)
    steps = speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    disp = np.zeros((num_frames, 2))
    disp[1:] = np.cumsum(steps, axis=0)
    return disp


def _crossings(rows: DetectionTable, owners: np.ndarray, iou_threshold: float) -> list[tuple[int, int, int]]:
    """The crossing events of rows grouped by owner, owners ascending; see :func:`find_crossings`."""
    i, j, iou = same_frame_overlaps(rows, iou_threshold)
    # an owner that repeats a frame is looked up by its last row there
    n = len(rows)
    by_frame = np.lexsort((np.arange(n), rows.frame, owners))
    last = np.ones(n, dtype=bool)
    last[by_frame[:-1]] = (owners[by_frame[1:]] != owners[by_frame[:-1]]) | (
        rows.frame[by_frame[1:]] != rows.frame[by_frame[:-1]]
    )
    # owners ascend with the rows, so i < j makes owner a = owners[i] the lower id and j a row of b
    keep = (owners[i] != owners[j]) & last[i]
    j, iou = j[keep], iou[keep]
    a, b = owners[i[keep]], owners[j]
    by_run = np.lexsort((j, a))
    j, iou, a, b = j[by_run], iou[by_run], a[by_run], b[by_run]
    # a run is a stretch of consecutive rows of b that hit the same a
    starts = np.ones(len(j), dtype=bool)
    starts[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (j[1:] != j[:-1] + 1)
    run = np.cumsum(starts) - 1
    # the peak of a run: the highest IoU, the earliest frame among equals
    frame = rows.frame[j]
    by_peak = np.lexsort((frame, -iou, run))
    first = np.ones(len(run), dtype=bool)
    first[1:] = run[by_peak[1:]] != run[by_peak[:-1]]
    peak = by_peak[first]
    events = peak[np.lexsort((b[peak], a[peak], frame[peak]))]
    return list(zip(a[events].tolist(), b[events].tolist(), frame[events].tolist()))


def find_crossings(trajectories: dict[int, Sequence[Detection]], iou_threshold: float) -> list[tuple[int, int, int]]:
    """Peak-overlap frames of every pairwise crossing: (id_a, id_b, frame), id_a < id_b, sorted by frame, then ids.

    The ids are the keys of ``trajectories``. A crossing is a run of
    consecutive detections of b, in list order, each of which reaches
    ``iou >= iou_threshold`` with a's detection in its frame; where a repeats a
    frame, its last detection there counts. The event frame is the run's
    highest IoU, the earliest such frame on a plateau. All same-frame pairs are
    found by one :func:`~trackstitch.tracklets.same_frame_overlaps` sweep.
    Raises ``ValueError`` unless ``iou_threshold`` lies in (0, 1].
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"crossing IoU threshold must lie in (0, 1], got {iou_threshold}")
    ids = sorted(trajectories)
    tables = [DetectionTable.of(trajectories[k]) for k in ids]
    owners = np.repeat(np.array(ids, dtype=np.int64), [len(t) for t in tables])
    return _crossings(DetectionTable.concat(tables), owners, iou_threshold)


def corrupt(gt: Sequence[Detection], cfg: CorruptionConfig) -> tuple[DetectionTable, CorruptionLog]:
    """Degrade a ground truth into tracker-like output, logging every event.

    Output track ids are always fresh (1..n, one per final fragment), so even
    an uncorrupted pass looks like a tracker run rather than the ground truth.
    The output is a table sorted by (frame, track_id). Each ground-truth track
    becomes a container, an array of row indices in frame order: swaps
    exchange the tails of two containers, and cuts split a container into
    pieces. The random draws come in a fixed order, so the result is
    deterministic per seed.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    log = CorruptionLog()

    table = DetectionTable.of(gt)
    rows = table.take(np.lexsort((table.frame, table.track_id)))
    bounds = run_bounds(rows.track_id)
    containers = {
        cid: np.arange(lo, hi) for cid, lo, hi in zip(rows.track_id[bounds[:-1]].tolist(), bounds, bounds[1:])
    }
    events = _crossings(rows, rows.track_id, cfg.crossing_iou)

    # identity swaps: exchange the tails of the two participants
    if cfg.swap_prob > 0:
        for (a, b, frame), draw in zip(events, rng.random(len(events)).tolist()):
            if draw < cfg.swap_prob:
                rows_a, rows_b = containers[a], containers[b]
                at_a = np.searchsorted(rows.frame[rows_a], frame)
                at_b = np.searchsorted(rows.frame[rows_b], frame)
                containers[a] = np.concatenate((rows_a[:at_a], rows_b[at_b:]))
                containers[b] = np.concatenate((rows_b[:at_b], rows_a[at_a:]))
                log.swaps.append(SwapRecord(a, b, frame))

    # collect cut points per container
    cut_points: dict[int, list[tuple[int, int]]] = {cid: [] for cid in containers}
    if cfg.fragment_prob > 0:
        for a, b, frame in events:
            for cid in (a, b):
                if rng.random() < cfg.fragment_prob:
                    gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
                    cut_points[cid].append((frame, gap))
    order = sorted(containers)
    for cid in order:
        frames = rows.frame[containers[cid]]
        if cfg.random_cuts_per_track < 1 or len(frames) < 3:
            continue
        margin = max(5, cfg.gap_frames[1] + 2)
        lo, hi = frames[0].item() + margin, frames[-1].item() - margin
        if hi <= lo:
            continue
        chosen: list[int] = []
        for _ in range(cfg.random_cuts_per_track):
            for _ in range(100):
                f = int(rng.integers(lo, hi + 1))
                if all(abs(f - other) >= margin for other in chosen):
                    chosen.append(f)
                    break
        for f in sorted(chosen):
            gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
            cut_points[cid].append((f, gap))

    # split every container into pieces at its cuts and delete the gap rows
    # after each cut; the pieces of all containers are numbered in order
    picked, piece_of = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    piece_owner: list[int] = []  # the container of each piece
    splits: list[tuple[int, int, int, int]] = []  # (container, frame, gap, piece left of it) per splitting cut
    for cid in order:
        widest: dict[int, int] = {}  # coinciding cuts collapse to the widest gap
        for f, gap in cut_points[cid]:
            widest[f] = max(gap, widest.get(f, 0))
        cut_frames = np.array(sorted(widest), dtype=np.int64)
        gaps = np.array([widest[f] for f in cut_frames.tolist()], dtype=np.int64)
        idx = containers[cid]
        frames = rows.frame[idx]
        # a row's piece counts the cuts at or before its frame, and the row is
        # deleted inside the gap of the latest of them; a cut after the last
        # row splits nothing
        piece = np.searchsorted(cut_frames, frames, side="right")
        keep = frames >= np.concatenate(([0], cut_frames + gaps))[piece]
        first_piece = len(piece_owner)
        picked.append(idx[keep])
        piece_of.append(first_piece + piece[keep])
        used = int(piece[-1]) if len(piece) else 0
        used_cuts = zip(cut_frames[:used].tolist(), gaps.tolist())
        splits += [(cid, f, gap, first_piece + k) for k, (f, gap) in enumerate(used_cuts)]
        piece_owner += [cid] * (used + 1)
    picked, piece_of = np.concatenate(picked), np.concatenate(piece_of)
    owner = np.array(piece_owner, dtype=np.int64)

    # dropout: one draw per row left, in container and row order
    if cfg.dropout > 0:
        dropped = rng.random(len(picked)) < cfg.dropout
        log.drops = [
            DropRecord(c, f) for c, f in zip(owner[piece_of[dropped]].tolist(), rows.frame[picked[dropped]].tolist())
        ]
        picked, piece_of = picked[~dropped], piece_of[~dropped]

    # fresh ids 1..n for the pieces that kept a row, in piece order; 0 marks an empty piece
    sizes = np.bincount(piece_of, minlength=len(owner))
    ids = np.where(sizes > 0, np.cumsum(sizes > 0), 0)
    full = np.flatnonzero(sizes)
    last = np.cumsum(sizes)[full] - 1  # the rows of a piece are consecutive
    first = last - sizes[full] + 1
    frames = rows.frame[picked]
    log.fragments = [
        FragmentRecord(*record)
        for record in zip(ids[full].tolist(), owner[full].tolist(), frames[first].tolist(), frames[last].tolist())
    ]
    # a cut record needs both of its immediate neighbors to have survived
    id_of = ids.tolist()
    log.cuts = [
        CutRecord(cid, f, gap, id_of[left], id_of[left + 1])
        for cid, f, gap, left in splits
        if id_of[left] and id_of[left + 1]
    ]
    out = rows.take(picked).relabeled(ids[piece_of])
    return out.take(np.lexsort((out.track_id, out.frame))), log
