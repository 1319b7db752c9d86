import math

import numpy as np
import pytest

from trackstitch.mot_io import Detection, SequenceMeta
from trackstitch.scoring import (
    ConstraintKind,
    ConstraintParams,
    ScoreConfig,
    gaussian_score,
    marginals,
    pair_distance,
    predicted_box,
    score_stop,
)
from trackstitch.tracklets import make_tracklet

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=1000)


def tracklet(tid, frames, x0=0.0, vx=0.0, y0=0.0, vy=0.0, w=10.0, h=10.0):
    dets = [Detection(f, tid, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0]), w, h, 1.0) for f in frames]
    return make_tracklet(tid, dets)


class TestGaussianScore:
    def test_half_at_t50(self):
        p = ConstraintParams(True, 2.5, 5.0)
        assert gaussian_score(2.5, p) == pytest.approx(0.5, abs=1e-12)

    def test_upper_clamp_at_zero(self):
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_score(0.0, p, 1e-6, 1 - 1e-6) == 1 - 1e-6

    def test_zero_at_t0(self):
        p = ConstraintParams(True, 1.0, 3.0, t0=4.0)
        assert gaussian_score(4.0, p) == 0.0
        assert gaussian_score(17.5, p) == 0.0
        assert gaussian_score(3.999, p) > 0.0

    def test_double_t50(self):
        # exp(-4 ln 2) = 2^-4
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_score(2.0, p, 1e-6, 1 - 1e-6) == pytest.approx(0.0625, abs=1e-15)

    def test_lower_clamp(self):
        p = ConstraintParams(True, 1.0, 3.0)
        assert gaussian_score(100.0, p, 1e-6, 1 - 1e-6) == 1e-6

    def test_non_increasing(self):
        p = ConstraintParams(True, 0.7, 3.0, t0=5.0)
        grid = np.linspace(0, 6, 500)
        values = [gaussian_score(float(c), p) for c in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_is_zero_or_bounded(self):
        rng = np.random.default_rng(11)
        p = ConstraintParams(True, 1.3, 3.0, t0=4.0)
        for _ in range(500):
            v = gaussian_score(float(rng.uniform(0, 8)), p, 0.01, 0.99)
            assert v == 0.0 or 0.01 <= v <= 0.99

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            gaussian_score(-0.1, ConstraintParams(True, 1.0, 3.0))


def stop_scores(cfg):
    return score_stop(tracklet(1, [1]), cfg).scores


class TestStopScore:
    def test_table_defaults(self):
        # td: exp(-ln2 * (3/1)^2) = 2^-9
        assert stop_scores(ScoreConfig())[ConstraintKind.TIME_DISTANCE] == pytest.approx(2**-9, abs=1e-15)

    def test_tend_at_t50_gives_half(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].tend = cfg.params[ConstraintKind.TIME_DISTANCE].t50
        assert stop_scores(cfg)[ConstraintKind.TIME_DISTANCE] == pytest.approx(0.5, abs=1e-12)

    def test_huge_tend_clamps_to_lower(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].tend = 1e6
        assert stop_scores(cfg)[ConstraintKind.TIME_DISTANCE] == cfg.lower

    def test_stop_ignores_t0(self):
        cfg = ScoreConfig()
        p = cfg.params[ConstraintKind.TIME_DISTANCE]
        p.t0 = 2.0
        p.tend = 3.0  # beyond t0, but STOP is never filtered
        assert stop_scores(cfg)[ConstraintKind.TIME_DISTANCE] == pytest.approx(2**-9, abs=1e-15)

    def test_predicted_constraints_clamp_at_table_tend(self):
        # piou_end = pcd_end = 2 are raw distances far past t50: score bottoms out at L
        cfg = ScoreConfig()
        assert stop_scores(cfg)[ConstraintKind.PREDICTED_IOU] == cfg.lower
        assert stop_scores(cfg)[ConstraintKind.PREDICTED_CENTER_DISTANCE] == cfg.lower

    def test_score_stop_multiplies_enabled_constraints(self):
        cfg = ScoreConfig()  # td, piou, pcd enabled
        ps = score_stop(tracklet(1, range(1, 4)), cfg)
        assert ps.successor is None
        expected = (2**-9) * cfg.lower * cfg.lower
        assert ps.product == pytest.approx(expected, rel=1e-12)


class TestPairDistance:
    def test_time_distance_at_reference_fps(self):
        t = tracklet(1, range(1, 11))
        s = tracklet(2, range(12, 22))
        assert pair_distance(ConstraintKind.TIME_DISTANCE, t, s, META) == 2.0

    def test_time_distance_scales_with_fps(self):
        t = tracklet(1, range(1, 11))
        s = tracklet(2, range(12, 22))
        meta15 = SequenceMeta(fps=15, img_width=1920, img_height=1080, num_frames=100)
        assert pair_distance(ConstraintKind.TIME_DISTANCE, t, s, meta15) == 4.0

    def test_identical_dynamics(self):
        t = tracklet(1, range(1, 11), vx=3.0)
        s = tracklet(2, range(12, 22), x0=33.0, vx=3.0)
        assert pair_distance(ConstraintKind.ANGLE_DIFFERENCE, t, s, META) == 0.0
        assert pair_distance(ConstraintKind.SPEED_NORM_DIFFERENCE, t, s, META) == 0.0

    def test_angle_opposite_directions(self):
        t = tracklet(1, range(1, 11), vx=2.0)
        s = tracklet(2, range(12, 22), vx=-2.0)
        assert pair_distance(ConstraintKind.ANGLE_DIFFERENCE, t, s, META) == pytest.approx(math.pi, abs=1e-12)

    def test_angle_zero_velocity_scores_zero(self):
        t = tracklet(1, [1])  # single detection: zero velocity
        s = tracklet(2, range(3, 13), vx=2.0)
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
        t = tracklet(1, range(1, 11), vx=3.0)
        s = tracklet(2, range(12, 22), vx=1.0)
        expected = 2.0 * (30.0 / 30.0) / META.diagonal
        assert pair_distance(ConstraintKind.SPEED_NORM_DIFFERENCE, t, s, META) == pytest.approx(expected, abs=1e-15)

    def test_exact_projection_hits_successor(self):
        # end box (0,0,10,10) moving (5,0); successor starts 2 frames later at (10,0)
        t = tracklet(1, [1, 2], vx=5.0)
        s = tracklet(2, [4, 5], x0=20.0, vx=5.0)
        assert predicted_box(t, 4) == (15.0, 0.0, 10.0, 10.0)
        t2 = tracklet(1, [1, 2, 3], vx=5.0)  # ends at frame 3, box (10,0)
        s2 = tracklet(2, [5, 6], x0=20.0, vx=5.0)
        assert pair_distance(ConstraintKind.PREDICTED_IOU, t2, s2, META) == 0.0
        assert pair_distance(ConstraintKind.PREDICTED_CENTER_DISTANCE, t2, s2, META) == 0.0

    def test_piou_distance_of_identical_float_boxes_is_zero(self):
        # the raw IoU of this box with itself rounds a few ulps above 1
        t = tracklet(1, [1], x0=10.1, y0=20.3, w=30.7, h=40.9)
        s = tracklet(2, [3], x0=10.1, y0=20.3, w=30.7, h=40.9)
        assert pair_distance(ConstraintKind.PREDICTED_IOU, t, s, META) == 0.0

    def test_piou_distance_in_unit_range(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = tracklet(1, range(1, 5), x0=rng.uniform(0, 500), vx=rng.uniform(-3, 3))
            s = tracklet(2, range(8, 12), x0=rng.uniform(0, 500), vx=rng.uniform(-3, 3))
            d = pair_distance(ConstraintKind.PREDICTED_IOU, t, s, META)
            assert 0.0 <= d <= 1.0
            assert pair_distance(ConstraintKind.PREDICTED_CENTER_DISTANCE, t, s, META) >= 0.0

    def test_requires_temporal_order(self):
        t = tracklet(1, range(1, 11))
        s = tracklet(2, range(5, 15))
        with pytest.raises(ValueError, match="must start after"):
            pair_distance(ConstraintKind.TIME_DISTANCE, t, s, META)

    def test_equal_end_and_start_frame_rejected(self):
        t = tracklet(1, range(1, 11))
        s = tracklet(2, range(10, 20))
        with pytest.raises(ValueError):
            pair_distance(ConstraintKind.TIME_DISTANCE, t, s, META)


class TestMarginals:
    def test_single_candidate(self):
        assert marginals({None: 0.123}) == {None: 1.0}

    def test_equal_products_split_evenly(self):
        m = marginals({1: 0.4, 2: 0.4})
        assert m[1] == pytest.approx(0.5, abs=0) and m[2] == pytest.approx(0.5, abs=0)

    def test_three_way_example(self):
        m = marginals({1: 0.4, 2: 0.1, None: 0.0005})
        assert m[1] == pytest.approx(0.4 / 0.5005, abs=1e-9)
        assert m[2] == pytest.approx(0.1 / 0.5005, abs=1e-9)
        assert m[None] == pytest.approx(0.0005 / 0.5005, abs=1e-9)
        assert sum(m.values()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_products_are_dropped(self):
        m = marginals({1: 0.0, 2: 0.3, None: 0.1})
        assert 1 not in m
        assert sum(m.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            marginals({1: 0.0, 2: 0.0})

    def test_ordering_invariant_under_rescale(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            products = {i: float(rng.uniform(1e-9, 1.0)) for i in range(int(rng.integers(2, 12)))}
            scale = float(rng.uniform(1e-6, 1e6))
            base = marginals(products)
            scaled = marginals({k: v * scale for k, v in products.items()})
            order = sorted(base, key=base.get)
            assert order == sorted(scaled, key=scaled.get)
            for k in base:
                assert scaled[k] == pytest.approx(base[k], rel=1e-9)
