"""Scores and marginals for tracklet-successor pairs.

Each enabled constraint measures one distance between a tracklet and a
candidate successor (time gap, velocity angle, speed-norm difference, or the
mismatch between the successor's start box and the box predicted by projecting
the tracklet's end box forward). Distances become scores through a Gaussian
calibrated so that a distance of ``t50`` scores exactly 0.5, clamped into
``[L, U]`` so no single constraint can force or veto an association on its
own (unless the optional hard-filter threshold ``t0`` is set, which zeroes the
score outright). Per-candidate products of scores, normalized over the
successor domain, are the marginals that guide the search.

Distances are normalized per sequence: frame gaps are expressed at a 30 FPS
reference rate and pixel distances as fractions of the image diagonal, so one
set of thresholds works across sequences with different frame rates and
resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Hashable, Mapping

from .mot_io import SequenceMeta
from .tracklets import Tracklet, iou

REFERENCE_FPS = 30.0

_LN2 = math.log(2.0)


class ConstraintKind(Enum):
    """The five score-based constraints; values double as config key prefixes."""

    TIME_DISTANCE = "td"
    ANGLE_DIFFERENCE = "ad"
    SPEED_NORM_DIFFERENCE = "sd"
    PREDICTED_IOU = "piou"
    PREDICTED_CENTER_DISTANCE = "pcd"


@dataclass
class ConstraintParams:
    """Thresholds of one constraint, in the distance units of that constraint.

    ``t50`` is the distance scoring 0.5, ``tend`` the fictional distance
    assigned to the STOP candidate, and ``t0`` (optional) the hard-filter
    distance at or beyond which a candidate is discarded.
    """

    enabled: bool
    t50: float
    tend: float
    t0: float | None = None

    def validate(self, name: str = "") -> None:
        prefix = f"{name}: " if name else ""
        if self.t50 <= 0:
            raise ValueError(f"{prefix}t50 must be positive, got {self.t50}")
        if self.tend <= 0:
            raise ValueError(f"{prefix}tend must be positive, got {self.tend}")
        if self.t0 is not None and self.t0 <= self.t50:
            raise ValueError(f"{prefix}t0 must exceed t50, got t0={self.t0} <= t50={self.t50}")


def _default_params() -> dict[ConstraintKind, ConstraintParams]:
    # shipped defaults; PREDICTED_IOU's t50 is the distance 1 - 0.75
    return {
        ConstraintKind.TIME_DISTANCE: ConstraintParams(True, 1.0, 3.0),
        ConstraintKind.ANGLE_DIFFERENCE: ConstraintParams(False, 0.5, 1.5),
        ConstraintKind.SPEED_NORM_DIFFERENCE: ConstraintParams(False, 0.01, 0.05),
        ConstraintKind.PREDICTED_IOU: ConstraintParams(True, 0.25, 2.0),
        ConstraintKind.PREDICTED_CENTER_DISTANCE: ConstraintParams(True, 0.02, 2.0),
    }


@dataclass
class ScoreConfig:
    """Per-constraint thresholds plus the global score bounds L and U."""

    params: dict[ConstraintKind, ConstraintParams] = field(default_factory=_default_params)
    lower: float = 1e-6
    upper: float = 1.0 - 1e-6

    def validate(self) -> None:
        if not (0.0 < self.lower < 0.5):
            raise ValueError(f"L must lie in (0, 0.5), got {self.lower}")
        if not (0.5 < self.upper < 1.0):
            raise ValueError(f"U must lie in (0.5, 1), got {self.upper}")
        for kind in ConstraintKind:
            if kind not in self.params:
                raise ValueError(f"missing parameters for {kind.value}")
            self.params[kind].validate(kind.value)

    @property
    def enabled_kinds(self) -> list[ConstraintKind]:
        return [k for k in ConstraintKind if self.params[k].enabled]


def gaussian_score(c: float, params: ConstraintParams, lower: float = 1e-6, upper: float = 1.0 - 1e-6) -> float:
    """Score a distance ``c >= 0``: a clamped Gaussian worth 0.5 at ``t50``.

    The Gaussian is exp(-c^2 / (2 sigma^2)) with sigma = t50 / sqrt(2 ln 2),
    which puts the half-height point exactly at ``t50``. The raw value is
    clamped into [lower, upper]; if ``t0`` is set, any distance at or beyond
    it scores exactly 0.
    """
    if c < 0:
        raise ValueError(f"distance must be nonnegative, got {c}")
    if params.t0 is not None and c >= params.t0:
        return 0.0
    raw = math.exp(-_LN2 * (c / params.t50) ** 2)
    return min(max(raw, lower), upper)


def _angle_between(u: tuple[float, float], v: tuple[float, float]) -> float:
    # unsigned angle in [0, pi]; zero vectors carry no direction evidence
    if (u[0] == 0 and u[1] == 0) or (v[0] == 0 and v[1] == 0):
        return 0.0
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dot)


def predicted_box(t: Tracklet, target_frame: int) -> tuple[float, float, float, float]:
    """End box of ``t`` translated to ``target_frame`` by its end velocity, size unchanged."""
    dt = target_frame - t.end.frame
    x, y, w, h = t.end.box
    vx, vy = t.end.velocity
    return (x + vx * dt, y + vy * dt, w, h)


def pair_distance(kind: ConstraintKind, t: Tracklet, s: Tracklet, meta: SequenceMeta) -> float:
    """The characteristic distance of one constraint for predecessor t and successor s.

    Requires s to start strictly after t ends.
    """
    gap = s.start.frame - t.end.frame
    if gap <= 0:
        raise ValueError(
            f"successor must start after predecessor ends: "
            f"t ends at {t.end.frame}, s starts at {s.start.frame}"
        )
    if kind is ConstraintKind.TIME_DISTANCE:
        return gap * (REFERENCE_FPS / meta.fps)
    if kind is ConstraintKind.ANGLE_DIFFERENCE:
        return _angle_between(t.end.velocity, s.start.velocity)
    if kind is ConstraintKind.SPEED_NORM_DIFFERENCE:
        speed_t = math.hypot(*t.end.velocity)
        speed_s = math.hypot(*s.start.velocity)
        return abs(speed_s - speed_t) * (meta.fps / REFERENCE_FPS) / meta.diagonal
    projected = predicted_box(t, s.start.frame)
    if kind is ConstraintKind.PREDICTED_IOU:
        return 1.0 - iou(projected, s.start.box)
    if kind is ConstraintKind.PREDICTED_CENTER_DISTANCE:
        px, py = projected[0] + projected[2] / 2.0, projected[1] + projected[3] / 2.0
        sx, sy = s.start.center
        return math.hypot(px - sx, py - sy) / meta.diagonal
    raise ValueError(f"unknown constraint kind: {kind}")


@dataclass
class PairScores:
    """Per-constraint scores of one (predecessor, successor-or-STOP) pair."""

    predecessor: int
    successor: int | None  # None means STOP
    scores: dict[ConstraintKind, float]
    product: float


def score_pair(t: Tracklet, s: Tracklet, cfg: ScoreConfig, meta: SequenceMeta) -> PairScores:
    """Score a candidate successor under every enabled constraint."""
    scores = {}
    product = 1.0
    for kind in cfg.enabled_kinds:
        c = pair_distance(kind, t, s, meta)
        value = gaussian_score(c, cfg.params[kind], cfg.lower, cfg.upper)
        scores[kind] = value
        product *= value
    return PairScores(t.id, s.id, scores, product)


def score_stop(t: Tracklet, cfg: ScoreConfig) -> PairScores:
    """Score the STOP candidate: every enabled constraint scores its ``tend``, never filtered by ``t0``."""
    scores = {}
    product = 1.0
    for kind in cfg.enabled_kinds:
        params = replace(cfg.params[kind], t0=None)
        value = gaussian_score(params.tend, params, cfg.lower, cfg.upper)
        scores[kind] = value
        product *= value
    return PairScores(t.id, None, scores, product)


def marginals(products: Mapping[Hashable, float]) -> dict[Hashable, float]:
    """Normalize candidate products into marginals summing to 1.

    Candidates whose product is 0 are dropped before normalizing (they were
    hard-filtered). At least one positive product must remain; the STOP
    candidate guarantees this for domains built by the associator.
    """
    surviving = {cand: p for cand, p in products.items() if p > 0}
    if not surviving:
        raise ValueError("all candidate products are zero; domains must retain STOP")
    total = sum(surviving.values())
    return {cand: p / total for cand, p in surviving.items()}
