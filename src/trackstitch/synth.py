"""Synthetic ground truth and controlled corruption for pipeline verification.

``generate`` builds constant-velocity trajectories (optionally curving, and
optionally aimed pairwise at common points to force crossings) on a pixel
canvas. ``corrupt`` degrades such a ground truth the way real trackers do:
it fragments trajectories, swaps identities at crossings and drops detections,
while logging every event so tests can check that the pipeline undoes them.

Both return a :class:`~trackstitch.mot_io.DetectionTable` and work on
columns: ``corrupt`` keeps each trajectory as an array of row indices, and
a crossing is an overlap run of two tracks as the cutter finds it
(:func:`~trackstitch.tracklets.overlap_runs`), placed at its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .mot_io import Detection, DetectionTable, SequenceMeta, atomic_writer, check_count, check_integer, check_iou_threshold, check_number
from .tracklets import group_tracklets, overlap_runs


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
        """Raise :class:`ScenarioError` unless the counts are integers, the seed nonnegative and the motion and frame rate numbers (a bool is neither), with at least one object and one frame; NaN fails each check.

        The frame rate, canvas and frame count are then checked by building the
        :class:`~trackstitch.mot_io.SequenceMeta` that :func:`generate` returns,
        whose message the error carries; last, the objects must fit the canvas
        and the motion must be finite.
        """
        try:
            for name in ("num_objects", "num_frames", "crossings"):
                check_integer(getattr(self, name), name)
            check_count(self.seed, "seed", 0)
            for name in ("fps", "turn_rate", "min_speed", "max_speed"):
                check_number(getattr(self, name), name)
            if self.num_objects < 1 or self.num_frames < 1:
                raise ValueError("need at least one object and one frame")
            SequenceMeta(fps=self.fps, img_width=self.img_width, img_height=self.img_height, num_frames=self.num_frames)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        n, W, H = self.num_objects, self.img_width, self.img_height
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
        for name in ("random_cuts_per_track", "seed"):
            check_count(getattr(self, name), name, 0)
        try:
            lo, hi = self.gap_frames
        except (TypeError, ValueError):  # not a pair
            raise ValueError(f"gap_frames must be a pair (lo, hi), got {self.gap_frames!r}") from None
        for k, bound in enumerate((lo, hi)):
            check_integer(bound, f"gap_frames[{k}]")
        for name in ("fragment_prob", "swap_prob", "dropout"):
            p = getattr(self, name)
            check_number(p, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if lo < 0 or hi < lo:
            raise ValueError(f"gap_frames must satisfy 0 <= lo <= hi, got {self.gap_frames}")
        check_iou_threshold(self.crossing_iou, "crossing_iou")


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
    # band (lo, hi) of start centers keeping box >= 1 px inside [0, extent]
    # for the whole displacement path; empty where hi < lo
    return 1 + size / 2.0 - disp.min(), extent - 1 - size / 2.0 - disp.max()


def _plan_paths(cfg: ScenarioConfig, rng: np.random.Generator) -> list[tuple[float, float, float, float, np.ndarray]]:
    """Size, start center and displacement path of every object, in object order: (w, h, cx, cy, disp).

    The free objects are planned first, then the crossing pairs (objects
    2k and 2k + 1), which are aimed at a common point.
    """
    W, H, T = cfg.img_width, cfg.img_height, cfg.num_frames
    plans: list = [None] * cfg.num_objects
    for obj in range(2 * cfg.crossings, cfg.num_objects):
        w = float(rng.uniform(_MIN_W, _MAX_W))
        h = float(rng.uniform(_MIN_H, _MAX_H))
        for _ in range(25):
            speed = rng.uniform(cfg.min_speed, cfg.max_speed)
            theta = rng.uniform(0, 2 * math.pi)
            disp = _displacements(speed, theta, cfg.turn_rate, T)
            band_x = _feasible_start(W, w, disp[:, 0])
            band_y = _feasible_start(H, h, disp[:, 1])
            if band_x[0] <= band_x[1] and band_y[0] <= band_y[1]:
                cx = float(rng.uniform(*band_x))
                cy = float(rng.uniform(*band_y))
                plans[obj] = (w, h, cx, cy, disp)
                break
        else:
            # slowest speed, clamped path
            disp = _displacements(cfg.min_speed, rng.uniform(0, 2 * math.pi), cfg.turn_rate, T)
            cx = float(rng.uniform(1 + w / 2, W - 1 - w / 2))
            cy = float(rng.uniform(1 + h / 2, H - 1 - h / 2))
            plans[obj] = (w, h, cx, cy, disp)

    for a in range(0, 2 * cfg.crossings, 2):
        # same size for both: boxes coincide exactly at the crossing frame
        w = float(rng.uniform(_MIN_W, _MAX_W))
        h = float(rng.uniform(_MIN_H, _MAX_H))
        for _ in range(50):
            fc = int(rng.integers(int(0.35 * T) + 1, max(int(0.65 * T), int(0.35 * T) + 2)))
            px = float(rng.uniform(0.3 * W, 0.7 * W))
            py = float(rng.uniform(0.3 * H, 0.7 * H))
            theta_a = float(rng.uniform(0, 2 * math.pi))
            theta_b = theta_a + float(rng.uniform(math.pi / 3, 2 * math.pi / 3))
            speed_a = float(rng.uniform(cfg.min_speed, cfg.max_speed))
            speed_b = float(rng.uniform(cfg.min_speed, cfg.max_speed))
            for obj, theta, speed in ((a, theta_a, speed_a), (a + 1, theta_b, speed_b)):
                disp = _displacements(speed, theta, 0.0, T)
                cx = px - disp[fc - 1, 0]
                cy = py - disp[fc - 1, 1]
                band_x = _feasible_start(W, w, disp[:, 0])
                band_y = _feasible_start(H, h, disp[:, 1])
                if not (band_x[0] <= cx <= band_x[1] and band_y[0] <= cy <= band_y[1]):
                    break  # object a's plan from this attempt is overwritten by a later one or never read
                plans[obj] = (w, h, cx, cy, disp)
            else:
                break
        else:
            raise ScenarioError(f"could not construct a crossing for objects {a + 1} and {a + 2}")
    return plans


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


def corrupt(gt: Sequence[Detection], cfg: CorruptionConfig) -> tuple[DetectionTable, CorruptionLog]:
    """Degrade a ground truth into tracker-like output, logging every event.

    Output track ids are always fresh (1..n, one per final fragment), so even
    an uncorrupted pass looks like a tracker run rather than the ground truth.
    The output is a table sorted by (frame, track_id). Each ground-truth track,
    grouped by :func:`~trackstitch.tracklets.group_tracklets` (which rejects
    two rows of a track in one frame), becomes a container, an array of row
    indices in frame order: swaps exchange the tails of two containers, and
    cuts split a container into pieces. The random draws come in a fixed
    order, so the result is deterministic per seed.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    log = CorruptionLog()

    tracks = group_tracklets(gt)
    rows, bounds = tracks.rows, tracks.bounds.tolist()
    containers = {cid: np.arange(lo, hi) for cid, lo, hi in zip(tracks.ids.tolist(), bounds, bounds[1:])}
    events = []  # the crossings' peaks (a, b, frame), a < b, by frame; only swaps and fragment cuts read them
    if cfg.swap_prob > 0 or cfg.fragment_prob > 0:
        i, j, _, peak = overlap_runs(tracks, cfg.crossing_iou)
        a, b, frame = rows.track_id[i[peak]], rows.track_id[j[peak]], rows.frame[i[peak]]
        by_frame = np.lexsort((b, a, frame))
        events = list(zip(a[by_frame].tolist(), b[by_frame].tolist(), frame[by_frame].tolist()))

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

    widest: dict[int, dict[int, int]] = {cid: {} for cid in containers}  # per container: cut frame -> widest gap cut there

    def cut(cid: int, frame: int) -> None:
        gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
        widest[cid][frame] = max(gap, widest[cid].get(frame, 0))

    if cfg.fragment_prob > 0:
        for a, b, frame in events:
            for cid in (a, b):
                if rng.random() < cfg.fragment_prob:
                    cut(cid, frame)
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
            cut(cid, f)

    # split every container into pieces at its cuts and delete the gap rows
    # after each cut; the pieces of all containers are numbered in order
    picked, piece_of = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    piece_owner: list[int] = []  # the container of each piece
    splits: list[tuple[int, int, int, int]] = []  # (container, frame, gap, piece left of it) per splitting cut
    for cid in order:
        cut_frames, gaps = np.array(sorted(widest[cid].items()), dtype=np.int64).reshape(-1, 2).T
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
    return out.by_frame(), log
