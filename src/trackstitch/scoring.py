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
successor) pairs of an :class:`EndpointArrays` table (:func:`score_columns`),
and the geometry that several constraints read is gathered once per call
(:class:`EndpointPairs`).

Numerics: scores are bit-identical to scoring each pair with plain Python
floats. numpy's ``+ - * /``, ``abs``, ``min``/``max``, comparisons and
``sqrt`` round exactly like Python's, but its vectorized transcendental
functions need not: measured on 10**6 random inputs against ``math`` on an
AVX-512 host, ``np.exp`` differs in 4.7 % of results, ``np.arctan2`` in
7.4 %, ``np.hypot`` in 0.6 %, and numpy's ``x ** 2`` (computed as ``x * x``)
differs from Python's ``x ** 2`` in 0.08 %. So ``math.hypot``, ``math.atan2``
and the Gaussian's ``math.exp`` are applied to plain floats; masks that
cannot change a bit (``t0`` filtering, the lower clamp) keep those calls few.
``np.hypot`` and ``np.arctan2`` only pick out the pairs whose distance lies
so far beyond both that its last bits cannot matter (see
:func:`pair_distances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from .mot_io import SequenceMeta, check_flag, check_number
from .tracklets import EndpointArrays, iou_pairs

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
        """Raise ValueError unless ``enabled`` is a bool, ``t50`` and ``tend`` are positive numbers and ``t0`` is None or a number above ``t50``; NaN fails each check.

        With a ``kind``, the message names the config key, as in ``td.t50``,
        and gives the thresholds in the form the config file writes them (see
        :func:`file_form`).
        """
        key = f"{kind.value}." if kind else ""
        check_flag(self.enabled, f"{key}enabled")
        iou = kind is ConstraintKind.PREDICTED_IOU
        check_number(self.t50, f"{key}t50")
        if not self.t50 > 0:
            raise ValueError(f"{key}t50 must be {'below 1' if iou else 'positive'}, got {file_form(kind, self.t50)}")
        check_number(self.tend, f"{key}tend")
        if not self.tend > 0:
            raise ValueError(f"{key}tend must be positive, got {self.tend}")
        if self.t0 is None:
            return
        check_number(self.t0, f"{key}t0")
        if not self.t0 > self.t50:
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
        check_number(self.lower, "bounds.L")
        check_number(self.upper, "bounds.U")
        if not (0.0 < self.lower < 0.5):
            raise ValueError(f"bounds.L must lie in (0, 0.5), got {self.lower}")
        if not (0.5 < self.upper < 1.0):
            raise ValueError(f"bounds.U must lie in (0.5, 1), got {self.upper}")
        for kind in ConstraintKind:
            if kind not in self.params:
                raise ValueError(f"missing parameters for {kind.value}")
            self.params[kind].validate(kind)
        # a product of k scores clamped at L, multiplied as stop_scores does,
        # must stay a normal float: else STOP's product may underflow to 0
        k = len(self.enabled_kinds)
        if math.prod([self.lower] * k) < float_info.min:
            raise ValueError(f"bounds.L**{k} must be a normal float with {k} constraints enabled, got bounds.L={self.lower}")

    @property
    def enabled_kinds(self) -> list[ConstraintKind]:
        return [k for k in ConstraintKind if self.params[k].enabled]


def _clamp_ratio(lower: float) -> float:
    # exp(-ln2 * r**2) <= lower  <=>  r**2 >= -log2(lower). The extra 0.01 in
    # the exponent keeps the Gaussian below lower * 2**-0.01, far beyond the
    # few ulps by which math.exp and the power can round, so past this ratio
    # the clamped Gaussian is exactly min(lower, upper).
    return math.sqrt(0.01 - math.log2(lower)) if 0.0 < lower < 1.0 else math.inf


def _columns(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The rows ``index`` of a (tracklets, k) array as a C-contiguous (k, pairs) stack of columns.

    ``take`` gathers many times faster than ``[index]`` does here, and every
    column it returns is contiguous for the element-wise arithmetic.
    """
    return rows.T.take(index, axis=1)


class EndpointPairs:
    """The row pairs (``pred[e]``, ``succ[e]``) of ``ends``, with the geometry the constraints read.

    Each part is gathered on first read and kept, so constraints that share
    one (the predicted-box constraints share the projected end boxes and the
    successors' start boxes) compute it once.
    """

    def __init__(self, ends: EndpointArrays, pred: np.ndarray, succ: np.ndarray):
        self.ends, self.pred, self.succ = ends, pred, succ

    @cached_property
    def gap(self) -> np.ndarray:
        """Frames from each predecessor's end to its successor's start."""
        return self.ends.start_frame[self.succ] - self.ends.end_frame[self.pred]

    @cached_property
    def end_velocity(self) -> np.ndarray:
        return _columns(self.ends.end_velocity, self.pred)

    @cached_property
    def projected(self) -> np.ndarray:
        """The end box translated by ``gap`` frames of end velocity, size unchanged; (4, pairs) columns."""
        boxes = _columns(self.ends.end_box, self.pred)
        with np.errstate(over="ignore"):  # a fast box projected far overflows to inf, as Python floats would
            boxes[:2] += self.end_velocity * self.gap
        return boxes

    @cached_property
    def start_box(self) -> np.ndarray:
        return _columns(self.ends.start_box, self.succ)


# np.hypot and np.arctan2 round within a few ulps of math.hypot and
# math.atan2; a value this far beyond a bound lies beyond it by either
_MARGIN = 1e-9


def _exact_up_to(approx: np.ndarray, exact: Callable[..., float], args: Sequence[np.ndarray], bound: float) -> np.ndarray:
    """``approx``, with every value not clearly beyond ``bound`` recomputed as ``exact`` of the ``args`` columns."""
    redo = ~(approx > bound * (1 + _MARGIN))
    approx[redo] = np.fromiter(map(exact, *(a[redo].tolist() for a in args)), dtype=float, count=np.count_nonzero(redo))
    return approx


def _angle_between(u: np.ndarray, v: np.ndarray, exact_up_to: float = math.inf) -> np.ndarray:
    """Unsigned angle in [0, pi] between the vectors of two (x, y) stacks ``u`` and ``v``.

    Zero vectors carry no direction evidence: their angle is 0. Angles
    above ``exact_up_to`` may be off by a few ulps (see :func:`pair_distances`).
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    moving = (u != 0).any(axis=0) & (v != 0).any(axis=0)
    angle = np.zeros(cross.shape)
    y, x = np.abs(cross[moving]), dot[moving]
    angle[moving] = _exact_up_to(np.arctan2(y, x), math.atan2, (y, x), exact_up_to)
    return angle


def pair_distances(
    kind: ConstraintKind,
    pairs: EndpointPairs,
    meta: SequenceMeta,
    exact_up_to: float = math.inf,
) -> np.ndarray:
    """One constraint's distance for every pair of ``pairs``.

    Every successor must start strictly after its predecessor ends; this is
    not checked here. Every distance up to ``exact_up_to`` is the plain
    Python float formula's, bit for bit; one beyond it may be a few ulps off,
    but lies beyond it as well, which is all :func:`score_columns` asks of a
    distance that scores the clamp or 0. This spares the per-pair
    ``math.hypot`` and ``math.atan2`` calls on far pairs.
    """
    ends, pred, succ = pairs.ends, pairs.pred, pairs.succ
    if kind is ConstraintKind.TIME_DISTANCE:
        return pairs.gap * (REFERENCE_FPS / meta.fps)
    if kind is ConstraintKind.ANGLE_DIFFERENCE:
        return _angle_between(pairs.end_velocity, _columns(ends.start_velocity, succ), exact_up_to)
    if kind is ConstraintKind.SPEED_NORM_DIFFERENCE:
        return np.abs(ends.start_speed[succ] - ends.end_speed[pred]) * (meta.fps / REFERENCE_FPS) / meta.diagonal
    projected, start = pairs.projected, pairs.start_box
    if kind is ConstraintKind.PREDICTED_IOU:
        return 1.0 - iou_pairs(projected, start)
    if kind is ConstraintKind.PREDICTED_CENTER_DISTANCE:
        dx = (projected[0] + projected[2] / 2.0) - (start[0] + start[2] / 2.0)
        dy = (projected[1] + projected[3] / 2.0) - (start[1] + start[3] / 2.0)
        return _exact_up_to(np.hypot(dx, dy), math.hypot, (dx, dy), exact_up_to * meta.diagonal) / meta.diagonal
    raise ValueError(f"unknown constraint kind: {kind}")


def gaussian_scores(
    c: np.ndarray, params: ConstraintParams, lower: float = 1e-6, upper: float = 1.0 - 1e-6
) -> np.ndarray:
    """Score every distance ``>= 0`` in the array ``c``: a clamped Gaussian worth 0.5 at ``t50``.

    The Gaussian is exp(-c^2 / (2 sigma^2)) with sigma = t50 / sqrt(2 ln 2),
    which puts the half-height point exactly at ``t50``. The raw value is
    clamped into [lower, upper]; if ``t0`` is set, any distance at or beyond
    it scores exactly 0. Those distances, and the ones whose ``c / t50`` puts
    the Gaussian safely below ``lower``, are scored without a call; the rest
    once per distinct value, by ``math.exp`` of a Python float.
    """
    c = np.asarray(c, dtype=float)
    if (c < 0).any():
        raise ValueError(f"distance must be nonnegative, got {c[c < 0][0]}")
    out = np.full(c.shape, min(lower, upper))
    live = ~(c / params.t50 > _clamp_ratio(lower))  # the clamp, also where ratio ** 2 would overflow
    if params.t0 is not None:
        filtered = c >= params.t0
        out[filtered] = 0.0
        live &= ~filtered
    values, inverse = np.unique(c[live], return_inverse=True)
    raw = np.array([math.exp(-_LN2 * r**2) for r in (values / params.t50).tolist()], dtype=float)
    out[live] = np.minimum(np.maximum(raw, lower), upper)[inverse]
    return out


def _decided_beyond(params: ConstraintParams, lower: float) -> float:
    """The distance beyond which a score is 0 or the clamp, whatever its last bits (see :func:`gaussian_scores`)."""
    return max(params.t50 * _clamp_ratio(lower), params.t0 or 0.0)


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
    pairs = EndpointPairs(ends, pred, succ)
    for row, kind in zip(scores, kinds):
        params = cfg.params[kind]
        distances = pair_distances(kind, pairs, meta, _decided_beyond(params, cfg.lower))
        row[:] = gaussian_scores(distances, params, cfg.lower, cfg.upper)
        products *= row
    return scores, products


@dataclass
class PairScores:
    """Per-constraint scores of one (predecessor, successor-or-STOP) pair."""

    predecessor: int
    successor: int | None  # None means STOP
    scores: dict[ConstraintKind, float]
    product: float


def stop_scores(cfg: ScoreConfig, kinds: Sequence[ConstraintKind]) -> tuple[dict[ConstraintKind, float], float]:
    """The STOP candidate's scores under ``kinds`` and their product.

    Every constraint scores its ``tend``, never filtered by ``t0``; the result
    is the same for every predecessor.
    """
    scores = {}
    product = 1.0
    for kind in kinds:
        params = replace(cfg.params[kind], t0=None)
        scores[kind] = gaussian_scores(np.array([params.tend]), params, cfg.lower, cfg.upper).item()
        product *= scores[kind]
    return scores, product


def left_sums(values: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """The sum of each segment ``values[offsets[k]:offsets[k + 1]]``, added left to right from 0.0; 0 for an empty one.

    Every total that normalizes marginals, checks a row of the candidate
    table or renormalizes a shrunk domain is rounded this way, as a plain
    loop of ``+`` rounds it, so that marginals are the same bits on every
    Python and numpy version: ``np.add.reduce`` sums pairwise, and the
    builtin ``sum`` is compensated from Python 3.12 on. ``np.bincount``
    adds each weight to its bin in order, starting from 0.0 (so a row of
    ``-0.0`` sums to ``0.0``, as the loop does).
    """
    counts = np.diff(offsets)
    row = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(row, weights=values, minlength=len(counts)).astype(float, copy=False)
