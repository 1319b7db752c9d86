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

Every constraint is computed once, as a column over many (predecessor,
successor) pairs of an :class:`EndpointArrays` table (:func:`score_columns`);
the single-pair functions :func:`pair_distance` and :func:`score_pair` are
one-row calls into the same columns.

Numerics: scores are bit-identical to scoring each pair with plain Python
floats. numpy's ``+ - * /``, ``abs``, ``min``/``max``, comparisons and
``sqrt`` round exactly like Python's, but its vectorized transcendental
functions need not: measured on 10**6 random inputs against ``math`` on an
AVX-512 host, ``np.exp`` differs in 4.7 % of results, ``np.arctan2`` in
7.4 %, ``np.hypot`` in 0.6 %, and numpy's ``x ** 2`` (computed as ``x * x``)
differs from Python's ``x ** 2`` in 0.08 %. So ``math.hypot``, ``math.atan2``
and :func:`gaussian_score` are applied to plain floats; masks that cannot
change a bit (``t0`` filtering, the lower clamp) keep those calls few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Hashable, Mapping, Sequence

import numpy as np

from .mot_io import SequenceMeta
from .tracklets import Tracklet, iou_pairs

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

    def validate(self, kind: ConstraintKind | None = None) -> None:
        """Raise ValueError unless ``t50`` and ``tend`` are positive and ``t0`` exceeds ``t50``; NaN fails each check.

        With a ``kind``, the message names the config key, as in ``td.t50``,
        and gives the thresholds in the form the config file writes them (see
        :func:`file_form`).
        """
        key = f"{kind.value}." if kind else ""
        iou = kind is ConstraintKind.PREDICTED_IOU
        if not self.t50 > 0:
            raise ValueError(f"{key}t50 must be {'below 1' if iou else 'positive'}, got {file_form(kind, self.t50)}")
        if not self.tend > 0:
            raise ValueError(f"{key}tend must be positive, got {self.tend}")
        if self.t0 is not None and not self.t0 > self.t50:
            t0, t50 = file_form(kind, self.t0), file_form(kind, self.t50)
            rule = f"lie below t50, got t0={t0} >= t50={t50}" if iou else f"exceed t50, got t0={t0} <= t50={t50}"
            raise ValueError(f"{key}t0 must {rule}")


def file_form(kind: ConstraintKind | None, value: float) -> float:
    """A threshold as the config file writes it, or back: ``1 - value`` for predicted IOU, its own inverse."""
    return 1.0 - value if kind is ConstraintKind.PREDICTED_IOU else value


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
            self.params[kind].validate(kind)

    @property
    def enabled_kinds(self) -> list[ConstraintKind]:
        return [k for k in ConstraintKind if self.params[k].enabled]


def _clamp_ratio(lower: float) -> float:
    # exp(-ln2 * r**2) <= lower  <=>  r**2 >= -log2(lower). The extra 0.01 in
    # the exponent keeps the Gaussian below lower * 2**-0.01, far beyond the
    # few ulps by which math.exp and the power can round, so past this ratio
    # the clamped Gaussian is exactly min(lower, upper).
    return math.sqrt(0.01 - math.log2(lower)) if 0.0 < lower < 1.0 else math.inf


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
    ratio = c / params.t50
    if ratio > _clamp_ratio(lower):
        return min(lower, upper)  # also where ratio ** 2 would overflow
    raw = math.exp(-_LN2 * ratio**2)
    return min(max(raw, lower), upper)


@dataclass(frozen=True)
class EndpointArrays:
    """The endpoint state of a tracklet sequence as columns, one row per tracklet.

    Boxes are (x, y, w, h) rows, velocities (vx, vy) rows in pixels/frame, and
    speeds their ``math.hypot`` norms.
    """

    ids: np.ndarray
    start_frame: np.ndarray
    end_frame: np.ndarray
    start_box: np.ndarray
    end_box: np.ndarray
    start_velocity: np.ndarray
    end_velocity: np.ndarray
    start_speed: np.ndarray
    end_speed: np.ndarray

    @classmethod
    def of(cls, tracklets: Sequence[Tracklet]) -> EndpointArrays:
        starts = [t.start for t in tracklets]
        ends = [t.end for t in tracklets]
        return cls(
            ids=np.array([t.id for t in tracklets], dtype=np.int64),
            start_frame=np.array([e.frame for e in starts], dtype=np.int64),
            end_frame=np.array([e.frame for e in ends], dtype=np.int64),
            start_box=np.array([e.box for e in starts], dtype=float).reshape(-1, 4),
            end_box=np.array([e.box for e in ends], dtype=float).reshape(-1, 4),
            start_velocity=np.array([e.velocity for e in starts], dtype=float).reshape(-1, 2),
            end_velocity=np.array([e.velocity for e in ends], dtype=float).reshape(-1, 2),
            start_speed=np.array([math.hypot(*e.velocity) for e in starts], dtype=float),
            end_speed=np.array([math.hypot(*e.velocity) for e in ends], dtype=float),
        )


def _check_gap(t: Tracklet, s: Tracklet) -> None:
    if s.start.frame <= t.end.frame:
        raise ValueError(
            f"successor must start after predecessor ends: "
            f"t ends at {t.end.frame}, s starts at {s.start.frame}"
        )


_FIRST, _SECOND = np.array([0]), np.array([1])


def _predicted_boxes(ends: EndpointArrays, pred: np.ndarray, dt: np.ndarray) -> np.ndarray:
    # end box translated by dt frames of end velocity, size unchanged
    boxes = ends.end_box[pred]
    boxes[:, :2] += ends.end_velocity[pred] * dt[:, None]
    return boxes


def predicted_box(t: Tracklet, target_frame: int) -> tuple[float, float, float, float]:
    """End box of ``t`` translated to ``target_frame`` by its end velocity, size unchanged."""
    box = _predicted_boxes(EndpointArrays.of([t]), _FIRST, np.array([target_frame - t.end.frame]))
    return tuple(box[0].tolist())


def _angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unsigned angle in [0, pi] between matching (x, y) rows of ``u`` and ``v``.

    Zero vectors carry no direction evidence: their angle is 0.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    moving = (u != 0).any(axis=-1) & (v != 0).any(axis=-1)
    angle = np.zeros(cross.shape)
    angle[moving] = [math.atan2(y, x) for y, x in zip(np.abs(cross[moving]).tolist(), dot[moving].tolist())]
    return angle


def pair_distances(
    kind: ConstraintKind, ends: EndpointArrays, pred: np.ndarray, succ: np.ndarray, meta: SequenceMeta
) -> np.ndarray:
    """One constraint's distance for every pair of rows (``pred[e]``, ``succ[e]``) of ``ends``.

    Every successor must start strictly after its predecessor ends; this is
    not checked here.
    """
    gap = ends.start_frame[succ] - ends.end_frame[pred]
    if kind is ConstraintKind.TIME_DISTANCE:
        return gap * (REFERENCE_FPS / meta.fps)
    if kind is ConstraintKind.ANGLE_DIFFERENCE:
        return _angle_between(ends.end_velocity[pred], ends.start_velocity[succ])
    if kind is ConstraintKind.SPEED_NORM_DIFFERENCE:
        return np.abs(ends.start_speed[succ] - ends.end_speed[pred]) * (meta.fps / REFERENCE_FPS) / meta.diagonal
    projected = _predicted_boxes(ends, pred, gap)
    if kind is ConstraintKind.PREDICTED_IOU:
        return 1.0 - iou_pairs(projected.T, ends.start_box[succ].T)
    if kind is ConstraintKind.PREDICTED_CENTER_DISTANCE:
        start = ends.start_box[succ]
        dx = (projected[:, 0] + projected[:, 2] / 2.0) - (start[:, 0] + start[:, 2] / 2.0)
        dy = (projected[:, 1] + projected[:, 3] / 2.0) - (start[:, 1] + start[:, 3] / 2.0)
        return np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())], dtype=float) / meta.diagonal
    raise ValueError(f"unknown constraint kind: {kind}")


def pair_distance(kind: ConstraintKind, t: Tracklet, s: Tracklet, meta: SequenceMeta) -> float:
    """The characteristic distance of one constraint for predecessor t and successor s.

    Requires s to start strictly after t ends.
    """
    _check_gap(t, s)
    return float(pair_distances(kind, EndpointArrays.of([t, s]), _FIRST, _SECOND, meta)[0])


def gaussian_scores(
    c: np.ndarray, params: ConstraintParams, lower: float = 1e-6, upper: float = 1.0 - 1e-6
) -> np.ndarray:
    """:func:`gaussian_score` of every distance in the array ``c``, bit for bit.

    Distances at or beyond ``t0`` score 0, and those whose ``c / t50`` puts
    the Gaussian safely below ``lower`` score the clamp, without a call; the
    rest are scored once per distinct value.
    """
    c = np.asarray(c, dtype=float)
    out = np.full(c.shape, min(lower, upper))
    live = ~(c / params.t50 > _clamp_ratio(lower))
    if params.t0 is not None:
        filtered = c >= params.t0
        out[filtered] = 0.0
        live &= ~filtered
    values, inverse = np.unique(c[live], return_inverse=True)
    scored = [gaussian_score(v, params, lower, upper) for v in values.tolist()]
    out[live] = np.array(scored, dtype=float)[inverse]
    return out


def score_columns(
    ends: EndpointArrays,
    pred: np.ndarray,
    succ: np.ndarray,
    cfg: ScoreConfig,
    meta: SequenceMeta,
    kinds: Sequence[ConstraintKind],
) -> tuple[np.ndarray, np.ndarray]:
    """Score every pair of rows (``pred[e]``, ``succ[e]``) of ``ends`` under ``kinds``.

    Returns the per-constraint scores, shape ``(len(kinds), len(pred))`` in
    ``kinds`` order, and their products. Successors must start strictly after
    their predecessors end.
    """
    scores = np.empty((len(kinds), len(pred)))
    products = np.ones(len(pred))
    for row, kind in zip(scores, kinds):
        row[:] = gaussian_scores(pair_distances(kind, ends, pred, succ, meta), cfg.params[kind], cfg.lower, cfg.upper)
        products *= row
    return scores, products


@dataclass
class PairScores:
    """Per-constraint scores of one (predecessor, successor-or-STOP) pair."""

    predecessor: int
    successor: int | None  # None means STOP
    scores: dict[ConstraintKind, float]
    product: float


def score_pair(t: Tracklet, s: Tracklet, cfg: ScoreConfig, meta: SequenceMeta) -> PairScores:
    """Score a candidate successor under every enabled constraint."""
    _check_gap(t, s)
    kinds = cfg.enabled_kinds
    scores, products = score_columns(EndpointArrays.of([t, s]), _FIRST, _SECOND, cfg, meta, kinds)
    return PairScores(t.id, s.id, dict(zip(kinds, scores[:, 0].tolist())), float(products[0]))


def stop_scores(cfg: ScoreConfig, kinds: Sequence[ConstraintKind]) -> tuple[dict[ConstraintKind, float], float]:
    """The STOP candidate's scores under ``kinds`` and their product.

    Every constraint scores its ``tend``, never filtered by ``t0``; the result
    is the same for every predecessor.
    """
    scores = {}
    product = 1.0
    for kind in kinds:
        params = replace(cfg.params[kind], t0=None)
        value = gaussian_score(params.tend, params, cfg.lower, cfg.upper)
        scores[kind] = value
        product *= value
    return scores, product


def score_stop(t: Tracklet, cfg: ScoreConfig) -> PairScores:
    """Score the STOP candidate of ``t`` under every enabled constraint (see :func:`stop_scores`)."""
    return PairScores(t.id, None, *stop_scores(cfg, cfg.enabled_kinds))


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
