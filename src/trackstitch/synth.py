"""Synthetic ground truth and controlled corruption for pipeline verification.

``generate`` builds constant-velocity trajectories (optionally curving, and
optionally aimed pairwise at common points to force crossings) on a pixel
canvas. ``corrupt`` degrades such a ground truth the way real trackers do:
it fragments trajectories, swaps identities at crossings and drops detections,
while logging every event so tests can check that the pipeline undoes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .mot_io import Detection, SequenceMeta, atomic_writer
from .tracklets import iou


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
            raise ValueError("random_cuts_per_track must be nonnegative")


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


def generate(cfg: ScenarioConfig) -> tuple[list[Detection], SequenceMeta]:
    """Build ground-truth detections for the configured scenario.

    Objects move at constant speed (rotated by ``turn_rate`` each frame when
    set). The first ``2 * crossings`` objects are aimed pairwise at a common
    point so their boxes coincide at one frame. Trajectories stay at least one
    pixel inside the canvas; when a sampled velocity cannot fit it is re-drawn,
    and as a last resort the path is clamped at the borders.
    """
    if cfg.num_objects < 1 or cfg.num_frames < 1:
        raise ScenarioError("need at least one object and one frame")
    if 2 * cfg.crossings > cfg.num_objects:
        raise ScenarioError(f"{cfg.crossings} crossings need {2 * cfg.crossings} objects, have {cfg.num_objects}")
    W, H, T = cfg.img_width, cfg.img_height, cfg.num_frames
    if W - 2 <= _MAX_W or H - 2 <= _MAX_H:
        raise ScenarioError(f"canvas {W}x{H} cannot hold objects up to {_MAX_W:.0f}x{_MAX_H:.0f}")
    if cfg.num_objects * _MAX_W * _MAX_H > 0.5 * W * H:
        raise ScenarioError(f"{cfg.num_objects} objects is too many for a {W}x{H} canvas")
    rng = np.random.default_rng(cfg.seed)

    detections: list[Detection] = []
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

    for obj in range(cfg.num_objects):
        w, h, cx, cy, disp = plans[obj]
        for t in range(T):
            x = float(np.clip(cx + disp[t, 0], 1 + w / 2, W - 1 - w / 2))
            y = float(np.clip(cy + disp[t, 1], 1 + h / 2, H - 1 - h / 2))
            detections.append(Detection(t + 1, obj + 1, x - w / 2, y - h / 2, w, h, conf=1.0))
    meta = SequenceMeta(fps=cfg.fps, img_width=W, img_height=H, num_frames=T)
    return detections, meta


def _displacements(speed: float, theta: float, turn_rate: float, num_frames: int) -> np.ndarray:
    """Cumulative center displacement from the start, frame by frame; shape (T, 2)."""
    angles = theta + turn_rate * np.arange(num_frames - 1)
    steps = speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    disp = np.zeros((num_frames, 2))
    disp[1:] = np.cumsum(steps, axis=0)
    return disp


def find_crossings(trajectories: dict[int, list[Detection]], iou_threshold: float) -> list[tuple[int, int, int]]:
    """Peak-overlap frames of every pairwise crossing: (id_a, id_b, frame)."""
    events = []
    ids = sorted(trajectories)
    for i, a in enumerate(ids):
        frames_a = {d.frame: d for d in trajectories[a]}
        for b in ids[i + 1 :]:
            run: list[tuple[float, int]] = []
            for d in trajectories[b]:
                da = frames_a.get(d.frame)
                value = iou(da.box, d.box) if da else 0.0
                if value >= iou_threshold:
                    run.append((value, d.frame))
                elif run:
                    events.append((a, b, max(run, key=lambda e: (e[0], -e[1]))[1]))
                    run = []
            if run:
                events.append((a, b, max(run, key=lambda e: (e[0], -e[1]))[1]))
    events.sort(key=lambda e: (e[2], e[0], e[1]))
    return events


def corrupt(gt: Sequence[Detection], cfg: CorruptionConfig) -> tuple[list[Detection], CorruptionLog]:
    """Degrade a ground truth into tracker-like output, logging every event.

    Output track ids are always fresh (1..n, one per final fragment), so even
    an uncorrupted pass looks like a tracker run rather than the ground truth.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    log = CorruptionLog()

    containers: dict[int, list[Detection]] = {}
    for det in sorted(gt, key=lambda d: (d.track_id, d.frame)):
        containers.setdefault(det.track_id, []).append(det)

    events = find_crossings(containers, cfg.crossing_iou)

    # identity swaps: exchange the tails of the two participants
    for a, b, frame in events:
        if cfg.swap_prob > 0 and rng.random() < cfg.swap_prob:
            head_a = [d for d in containers[a] if d.frame < frame]
            tail_a = [d for d in containers[a] if d.frame >= frame]
            head_b = [d for d in containers[b] if d.frame < frame]
            tail_b = [d for d in containers[b] if d.frame >= frame]
            containers[a] = head_a + tail_b
            containers[b] = head_b + tail_a
            log.swaps.append(SwapRecord(a, b, frame))

    # collect cut points per container
    cut_points: dict[int, list[tuple[int, int]]] = {cid: [] for cid in containers}
    for a, b, frame in events:
        for cid in (a, b):
            if cfg.fragment_prob > 0 and rng.random() < cfg.fragment_prob:
                gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
                cut_points[cid].append((frame, gap))
    for cid in sorted(containers):
        dets = containers[cid]
        if cfg.random_cuts_per_track < 1 or len(dets) < 3:
            continue
        margin = max(5, cfg.gap_frames[1] + 2)
        lo, hi = dets[0].frame + margin, dets[-1].frame - margin
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

    # apply cuts, then dropout, then assign fresh output ids
    out: list[Detection] = []
    next_id = 1
    for cid in sorted(containers):
        dets = containers[cid]
        pieces: list[list[Detection]] = [[]]
        cut_meta: list[tuple[int, int]] = []  # aligned with the boundary after piece k
        by_cut_frame: dict[int, int] = {}  # coinciding cuts collapse to the widest gap
        for f, gap in cut_points[cid]:
            by_cut_frame[f] = max(gap, by_cut_frame.get(f, 0))
        cuts = sorted(by_cut_frame.items())
        it = iter(cuts)
        cut = next(it, None)
        for det in dets:
            while cut is not None and det.frame >= cut[0]:
                pieces.append([])
                cut_meta.append(cut)
                cut = next(it, None)
            if cut_meta and cut_meta[-1][0] <= det.frame < cut_meta[-1][0] + cut_meta[-1][1]:
                continue  # falls inside the gap deleted by the latest cut
            pieces[-1].append(det)

        kept_pieces: list[list[Detection] | None] = []
        for piece in pieces:
            kept = []
            for det in piece:
                if cfg.dropout > 0 and rng.random() < cfg.dropout:
                    log.drops.append(DropRecord(cid, det.frame))
                else:
                    kept.append(det)
            kept_pieces.append(kept or None)

        piece_ids: list[int | None] = []
        for piece in kept_pieces:
            if piece is None:
                piece_ids.append(None)
                continue
            relabeled = [replace(d, track_id=next_id) for d in piece]
            out.extend(relabeled)
            log.fragments.append(FragmentRecord(next_id, cid, relabeled[0].frame, relabeled[-1].frame))
            piece_ids.append(next_id)
            next_id += 1

        # a cut record needs both of its immediate neighbors to have survived
        for k, boundary in enumerate(cut_meta):
            left, right = piece_ids[k], piece_ids[k + 1]
            if left is not None and right is not None:
                log.cuts.append(CutRecord(cid, boundary[0], boundary[1], left, right))

    out.sort(key=lambda d: (d.frame, d.track_id))
    return out, log
