import math
from dataclasses import replace

import numpy as np
import pytest

import trackstitch.scoring as scoring_module
from trackstitch.associator import STOP, build_domains
from trackstitch.mot_io import Detection, DetectionTable, SequenceMeta
from trackstitch.scoring import (
    ConstraintKind,
    ConstraintParams,
    EndpointPairs,
    ScoreConfig,
    gaussian_scores,
    left_sums,
    pair_distances,
    score_columns,
    stop_scores,
)
from trackstitch.tracklets import EndpointArrays, Tracklets, group_tracklets

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=1000)


def run(tid, frames, x0=0.0, vx=0.0, y0=0.0, vy=0.0, w=10.0, h=10.0):
    """Track ``tid``'s detections in ``frames``, moving (``vx``, ``vy``) pixels per frame."""
    return [Detection(f, tid, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0]), w, h, 1.0) for f in frames]


class TestGaussianScore:
    def test_half_at_t50(self):
        p = ConstraintParams(True, 2.5, 5.0)
        assert gaussian_scores(np.array([2.5]), p).item() == pytest.approx(0.5, abs=1e-12)

    def test_upper_clamp_at_zero(self):
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_scores(np.array([0.0]), p, 1e-6, 1 - 1e-6).tolist() == [1 - 1e-6]

    def test_zero_at_t0(self):
        p = ConstraintParams(True, 1.0, 3.0, t0=4.0)
        at_t0, beyond, below = gaussian_scores(np.array([4.0, 17.5, 3.999]), p).tolist()
        assert at_t0 == 0.0
        assert beyond == 0.0
        assert below > 0.0

    def test_double_t50(self):
        # exp(-4 ln 2) = 2^-4
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_scores(np.array([2.0]), p, 1e-6, 1 - 1e-6).item() == pytest.approx(0.0625, abs=1e-15)

    def test_lower_clamp(self):
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_scores(np.array([100.0]), p, 1e-6, 1 - 1e-6).tolist() == [1e-6]

    def test_non_increasing(self):
        p = ConstraintParams(True, 0.7, 3.0, t0=5.0)
        grid = np.linspace(0, 6, 500)
        values = gaussian_scores(grid, p).tolist()
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_is_zero_or_bounded(self):
        rng = np.random.default_rng(11)
        p = ConstraintParams(True, 1.3, 3.0, t0=4.0)
        for v in gaussian_scores(rng.uniform(0, 8, size=500), p, 0.01, 0.99).tolist():
            assert v == 0.0 or 0.01 <= v <= 0.99

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            gaussian_scores(np.array([-0.1]), ConstraintParams(True, 1.0, 3.0))


def plain_score(c, p, lower, upper):
    """The bounded Gaussian with no shortcut: the reference for the clamp masks."""
    if p.t0 is not None and c >= p.t0:
        return 0.0
    return min(max(math.exp(-math.log(2.0) * (c / p.t50) ** 2), lower), upper)


class TestGaussianScores:
    def test_matches_plain_formula_around_the_clamp_and_t0(self):
        # distances packed around the ratio where the Gaussian meets L, and around t0
        rng = np.random.default_rng(15)
        for lower in (1e-300, 1e-12, 1e-6, 0.01, 0.3, 0.49):
            for t0 in (None, 2.0, 7.0):
                p = ConstraintParams(True, 0.7, 3.0, t0=t0)
                edge = p.t50 * math.sqrt(-math.log2(lower))
                c = np.concatenate([
                    edge * (1 + rng.uniform(-0.05, 0.05, size=2000)),
                    edge * np.nextafter(1.0, [0.0, 2.0]),
                    rng.uniform(0, 3 * edge, size=500),
                    [0.0, p.t50, t0 or 1.0, np.nextafter(t0 or 1.0, 0.0), 1e100],
                ])
                expected = [plain_score(v, p, lower, 0.9) for v in c.tolist()]
                # one distance at a time, as stop_scores scores them, and all at once
                assert [gaussian_scores(np.array([v]), p, lower, 0.9).item() for v in c.tolist()] == expected
                assert gaussian_scores(c, p, lower, 0.9).tolist() == expected

    def test_clamps_where_the_square_would_overflow(self):
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_scores(np.array([1e200]), p, 1e-6).tolist() == [1e-6]

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            gaussian_scores(np.array([0.5, -0.1]), ConstraintParams(True, 1.0, 3.0))


def stop_table(cfg):
    return stop_scores(cfg, cfg.enabled_kinds)[0]


class TestStopScore:
    def test_table_defaults(self):
        # td: exp(-ln2 * (3/1)^2) = 2^-9
        assert stop_table(ScoreConfig())[ConstraintKind.TIME_DISTANCE] == pytest.approx(2**-9, abs=1e-15)

    def test_tend_at_t50_gives_half(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].tend = cfg.params[ConstraintKind.TIME_DISTANCE].t50
        assert stop_table(cfg)[ConstraintKind.TIME_DISTANCE] == pytest.approx(0.5, abs=1e-12)

    def test_huge_tend_clamps_to_lower(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].tend = 1e6
        assert stop_table(cfg)[ConstraintKind.TIME_DISTANCE] == cfg.lower

    def test_stop_ignores_t0(self):
        cfg = ScoreConfig()
        p = cfg.params[ConstraintKind.TIME_DISTANCE]
        p.t0 = 2.0
        p.tend = 3.0  # beyond t0, but STOP is never filtered
        assert stop_table(cfg)[ConstraintKind.TIME_DISTANCE] == pytest.approx(2**-9, abs=1e-15)

    def test_predicted_constraints_clamp_at_table_tend(self):
        # piou_end = pcd_end = 2 are raw distances far past t50: score bottoms out at L
        cfg = ScoreConfig()
        assert stop_table(cfg)[ConstraintKind.PREDICTED_IOU] == cfg.lower
        assert stop_table(cfg)[ConstraintKind.PREDICTED_CENTER_DISTANCE] == cfg.lower

    def test_score_stop_multiplies_enabled_constraints(self):
        cfg = ScoreConfig()  # td, piou, pcd enabled
        scores, product = stop_scores(cfg, cfg.enabled_kinds)
        assert list(scores) == cfg.enabled_kinds
        expected = (2**-9) * cfg.lower * cfg.lower
        assert product == pytest.approx(expected, rel=1e-12)


def pair_distance(kind, t, s, meta):
    """The distance of one pair, predecessor run t and successor run s, through :func:`pair_distances`."""
    return pair_distances(kind, one_pair(t, s), meta).item()


def one_pair(t, s):
    ends = Tracklets(DetectionTable.of(t + s)).ends
    return EndpointPairs(ends, np.array([0]), np.array([1]))


class TestPairDistance:
    def test_time_distance_at_reference_fps(self):
        t = run(1, range(1, 11))
        s = run(2, range(12, 22))
        assert pair_distance(ConstraintKind.TIME_DISTANCE, t, s, META) == 2.0

    def test_time_distance_scales_with_fps(self):
        t = run(1, range(1, 11))
        s = run(2, range(12, 22))
        meta15 = SequenceMeta(fps=15, img_width=1920, img_height=1080, num_frames=100)
        assert pair_distance(ConstraintKind.TIME_DISTANCE, t, s, meta15) == 4.0

    def test_identical_dynamics(self):
        t = run(1, range(1, 11), vx=3.0)
        s = run(2, range(12, 22), x0=33.0, vx=3.0)
        assert pair_distance(ConstraintKind.ANGLE_DIFFERENCE, t, s, META) == 0.0
        assert pair_distance(ConstraintKind.SPEED_NORM_DIFFERENCE, t, s, META) == 0.0

    def test_angle_opposite_directions(self):
        t = run(1, range(1, 11), vx=2.0)
        s = run(2, range(12, 22), vx=-2.0)
        assert pair_distance(ConstraintKind.ANGLE_DIFFERENCE, t, s, META) == pytest.approx(math.pi, abs=1e-12)

    def test_angle_zero_velocity_scores_zero(self):
        t = run(1, [1])  # single detection: zero velocity
        s = run(2, range(3, 13), vx=2.0)
        assert pair_distance(ConstraintKind.ANGLE_DIFFERENCE, t, s, META) == 0.0

    def test_angle_symmetric_under_swap(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = tuple(rng.uniform(-4, 4, size=2))
            v = tuple(rng.uniform(-4, 4, size=2))
            from trackstitch.scoring import _angle_between

            assert _angle_between(u, v) == pytest.approx(_angle_between(v, u), abs=1e-12)
            assert 0.0 <= _angle_between(u, v) <= math.pi

    def test_speed_norm_difference_normalization(self):
        t = run(1, range(1, 11), vx=3.0)
        s = run(2, range(12, 22), vx=1.0)
        expected = 2.0 * (30.0 / 30.0) / META.diagonal
        assert pair_distance(ConstraintKind.SPEED_NORM_DIFFERENCE, t, s, META) == pytest.approx(expected, abs=1e-15)

    def test_exact_projection_hits_successor(self):
        # end box (0,0,10,10) moving (5,0); successor starts 2 frames later at (10,0)
        t = run(1, [1, 2], vx=5.0)
        s = run(2, [4, 5], x0=20.0, vx=5.0)
        assert one_pair(t, s).projected[:, 0].tolist() == [15.0, 0.0, 10.0, 10.0]
        t2 = run(1, [1, 2, 3], vx=5.0)  # ends at frame 3, box (10,0)
        s2 = run(2, [5, 6], x0=20.0, vx=5.0)
        assert pair_distance(ConstraintKind.PREDICTED_IOU, t2, s2, META) == 0.0
        assert pair_distance(ConstraintKind.PREDICTED_CENTER_DISTANCE, t2, s2, META) == 0.0

    def test_piou_distance_of_identical_float_boxes_is_zero(self):
        # the raw IoU of this box with itself rounds a few ulps above 1
        t = run(1, [1], x0=10.1, y0=20.3, w=30.7, h=40.9)
        s = run(2, [3], x0=10.1, y0=20.3, w=30.7, h=40.9)
        assert pair_distance(ConstraintKind.PREDICTED_IOU, t, s, META) == 0.0

    def test_piou_distance_in_unit_range(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = run(1, range(1, 5), x0=rng.uniform(0, 500), vx=rng.uniform(-3, 3))
            s = run(2, range(8, 12), x0=rng.uniform(0, 500), vx=rng.uniform(-3, 3))
            d = pair_distance(ConstraintKind.PREDICTED_IOU, t, s, META)
            assert 0.0 <= d <= 1.0
            assert pair_distance(ConstraintKind.PREDICTED_CENTER_DISTANCE, t, s, META) >= 0.0

    # pair_distances does not check that a successor starts after its
    # predecessor ends; build_domains scores only such pairs
    def test_requires_temporal_order(self):
        t = run(1, range(1, 11))
        s = run(2, range(5, 15))
        assert [list(var.pair_scores) for var in build_domains(group_tracklets(t + s), ScoreConfig(), META)] == [[STOP], [STOP]]

    def test_equal_end_and_start_frame_rejected(self):
        t = run(1, range(1, 11))
        s = run(2, range(10, 20))
        u = run(3, range(11, 20))
        assert [list(var.pair_scores) for var in build_domains(group_tracklets(t + s + u), ScoreConfig(), META)] == [[3, STOP], [STOP], [STOP]]


def rows(domains):
    """Each variable's (products, marginals) columns."""
    bounds = domains.offsets.tolist()
    return [(domains.products[lo:hi], domains.marginals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def random_scene(rng, n):
    """n tracklets of 1 to 14 detections at random places, frames and speeds."""
    dets = []
    for tid in range(1, n + 1):
        first = int(rng.integers(1, 200))
        dets += run(tid, range(first, first + int(rng.integers(1, 15))), x0=float(rng.uniform(0, 1800)),
                    vx=float(rng.uniform(-2, 2)), y0=float(rng.uniform(0, 1000)))
    return group_tracklets(dets)


class TestMarginals:
    """build_domains' marginals: each row's products over the row's total."""

    def test_single_candidate(self):
        domains = build_domains(group_tracklets(run(1, range(1, 11))), ScoreConfig(), META)
        assert domains.marginals.tolist() == [1.0]
        assert domains[0].marginals == {STOP: 1.0}

    def test_equal_products_split_evenly(self):
        # 2 and 3 start alike, so 1 scores them alike
        tls = group_tracklets(run(1, range(1, 11), vx=1.0) + run(2, range(12, 22), x0=11.0) + run(3, range(12, 22), x0=11.0))
        products, marginals = rows(build_domains(tls, ScoreConfig(), META))[0]
        assert products[0] == products[1] and marginals[0] == marginals[1]
        assert marginals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_three_way_example(self):
        tls = group_tracklets(run(1, range(1, 11), vx=1.0) + run(2, range(12, 22), x0=11.0, vx=1.0) + run(3, range(13, 22), x0=30.0))
        products, marginals = rows(build_domains(tls, ScoreConfig(), META))[0]
        assert len(products) == 3 and len(set(products.tolist())) == 3
        total = products[0] + products[1] + products[2]
        assert marginals.tolist() == pytest.approx((products / total).tolist(), abs=1e-9)
        assert marginals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_products_are_dropped(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 10.0
        # 3 resumes 1 thirty frames later: past t0, so its product is 0
        tls = group_tracklets(run(1, range(1, 11)) + run(2, range(12, 21)) + run(3, range(40, 51)))
        domains = build_domains(tls, cfg, META)
        products, marginals = rows(domains)[0]
        assert products[1] == 0.0 and marginals[1] == 0.0
        assert 3 not in domains[0].marginals and 2 in domains[0].marginals
        assert sum(domains[0].marginals.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_raises(self):
        # every enabled constraint would score STOP at L = 1e-200, and the
        # product would underflow to 0: validation rejects that L up front
        cfg = ScoreConfig(lower=1e-200)
        for kind in cfg.enabled_kinds:
            cfg.params[kind].tend = 1e6
        message = r"^bounds.L\*\*3 must be a normal float with 3 constraints enabled, got bounds.L=1e-200$"
        with pytest.raises(ValueError, match=message):
            build_domains(group_tracklets(run(1, range(1, 11))), cfg, META)
        # at L = 1e-100 the product is a normal float, and STOP keeps it
        cfg.lower = 1e-100
        products, marginals = rows(build_domains(group_tracklets(run(1, range(1, 11))), cfg, META))[0]
        assert products.tolist() == [1e-100 * 1e-100 * 1e-100] and marginals.tolist() == [1.0]

    def test_ordering_invariant_under_rescale(self):
        # a speed constraint that scores every entry, STOP included, at U
        # multiplies every product by U
        rng = np.random.default_rng(14)
        for _ in range(40):
            tls = random_scene(rng, int(rng.integers(2, 12)))
            cfg = ScoreConfig(upper=float(rng.uniform(0.51, 0.999)))
            scaled = replace(cfg, params={kind: replace(p) for kind, p in cfg.params.items()})
            scaled.params[ConstraintKind.SPEED_NORM_DIFFERENCE] = ConstraintParams(True, 1e300, 1e-300)
            for (products, base), (scaled_products, rescaled) in zip(rows(build_domains(tls, cfg, META)), rows(build_domains(tls, scaled, META))):
                assert scaled_products.tolist() == pytest.approx((products * cfg.upper).tolist(), rel=1e-12)
                assert np.argsort(base, kind="stable").tolist() == np.argsort(rescaled, kind="stable").tolist()
                assert rescaled.tolist() == pytest.approx(base.tolist(), rel=1e-9)

    def test_total_is_summed_left_to_right(self):
        # ten products of 0.1 add up to 0.9999999999999999 left to right, but to
        # 1.0 in a compensated sum (the builtin sum from Python 3.12 on) and in
        # numpy's pairwise np.sum
        assert math.fsum([0.1] * 10) == np.sum(np.full(10, 0.1)) == 1.0
        rng = np.random.default_rng(15)
        compensated_differs = 0
        for _ in range(10):
            for products, marginals in rows(build_domains(random_scene(rng, 40), ScoreConfig(), META)):
                total = 0.0
                for product in products.tolist():
                    total += product
                assert marginals.tolist() == (products / total).tolist()
                compensated_differs += marginals.tolist() != (products / math.fsum(products.tolist())).tolist()
        assert compensated_differs > 0

    def test_left_sums_add_each_segment_in_order(self):
        rng = np.random.default_rng(16)
        values = 10.0 ** rng.uniform(-20, 0, size=500)
        offsets = np.unique(np.concatenate(([0, 500], rng.integers(0, 500, size=40))))
        offsets = np.insert(offsets, 3, offsets[3])  # an empty segment
        expected = []
        for lo, hi in zip(offsets, offsets[1:]):
            total = 0.0
            for value in values[lo:hi].tolist():
                total += value
            expected.append(total)
        assert left_sums(values, offsets).tolist() == expected
        assert left_sums(np.full(10, 0.1), [0, 10]).tolist() == [0.9999999999999999]
        # the loop starts from 0.0, so a row of -0.0 sums to 0.0, not -0.0
        sums = left_sums(np.array([-0.0, -0.0, 1.0, math.inf, 2.5]), [0, 2, 4, 5])
        assert sums.tolist() == [0.0, math.inf, 2.5] and not np.signbit(sums[0])
        empty = left_sums(np.array([]), [0, 0, 0])
        assert empty.dtype == float and empty.tolist() == [0.0, 0.0]
        assert left_sums(np.array([]), [0]).dtype == float


@pytest.mark.parametrize("kind", [ConstraintKind.ANGLE_DIFFERENCE, ConstraintKind.PREDICTED_CENTER_DISTANCE])
def test_distances_are_exact_up_to_the_bound_and_beyond_it_past_there(kind):
    rng = np.random.default_rng(17)
    n = 60
    boxes = np.column_stack([rng.uniform(0, 1800, (n, 2)), rng.uniform(5, 80, (n, 2))])
    velocities = rng.uniform(-5, 5, (n, 2)) * (rng.random((n, 1)) < 0.8)  # some standing
    frames = rng.integers(1, 500, n)
    ends = EndpointArrays(np.arange(1, n + 1), frames, frames, boxes, boxes.copy(), velocities, velocities[::-1].copy())
    pairs = EndpointPairs(ends, *np.nonzero(frames[:, None] < frames[None, :]))
    exact = pair_distances(kind, pairs, META)
    for bound in np.quantile(exact, [0.0, 0.1, 0.5, 0.9]).tolist():
        got = pair_distances(kind, pairs, META, bound)
        near = exact <= bound * (1 + 1e-6)
        assert got[near].tolist() == exact[near].tolist()
        assert (got[~near] > bound).all() and np.allclose(got[~near], exact[~near], rtol=1e-14, atol=0)


def test_score_columns_gathers_each_pair_part_once(monkeypatch):
    # all five constraints read the end and start velocities and boxes; each
    # is gathered once, and the projected boxes are computed once
    gathered = []
    columns = scoring_module._columns

    def counting_columns(rows, index):
        gathered.append(rows.shape[1])
        return columns(rows, index)

    monkeypatch.setattr(scoring_module, "_columns", counting_columns)
    cfg = ScoreConfig()
    for params in cfg.params.values():
        params.enabled = True
    tls = group_tracklets(run(1, range(1, 11), vx=2.0) + run(2, range(12, 22), x0=24.0, vx=2.0) + run(3, range(25, 30), vy=1.0))
    ends = tls.ends
    pred, succ = np.array([0, 0, 1]), np.array([1, 2, 2])
    scores, products = score_columns(ends, pred, succ, cfg, META, cfg.enabled_kinds)
    assert sorted(gathered) == [2, 2, 4, 4]
    for k, (p, q) in enumerate(zip(pred, succ)):
        single, product = score_columns(ends, p[None], q[None], cfg, META, cfg.enabled_kinds)
        assert single[:, 0].tolist() == scores[:, k].tolist() and product.tolist() == [products[k]]
