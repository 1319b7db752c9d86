import re

import numpy as np
import pytest

from trackstitch.mot_io import Detection
from trackstitch.synth import (
    CorruptionConfig,
    ScenarioConfig,
    ScenarioError,
    SwapRecord,
    corrupt,
    generate,
)
from trackstitch.tracklets import iou_pairs


def crossings(gt):
    """The crossings ``corrupt`` finds at the default ``crossing_iou``, as the swaps it logs when it swaps at every one."""
    return corrupt(gt, CorruptionConfig(swap_prob=1.0))[1].swaps


def group(dets):
    out = {}
    for d in dets:
        out.setdefault(d.track_id, []).append(d)
    return out


class TestGenerate:
    def test_single_object_constant_velocity(self):
        gt, meta = generate(ScenarioConfig(num_objects=1, num_frames=10, seed=1))
        assert len(gt) == 10
        assert meta.num_frames == 10
        xs = [d.center[0] for d in gt]
        steps = np.diff(xs)
        assert np.allclose(steps, steps[0])  # arithmetic sequence

    def test_deterministic_per_seed(self):
        cfg = ScenarioConfig(num_objects=5, num_frames=50, crossings=1, seed=9)
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        assert a == b
        c, _ = generate(ScenarioConfig(num_objects=5, num_frames=50, crossings=1, seed=10))
        assert a != c

    def test_boxes_stay_inside_canvas(self):
        gt, meta = generate(ScenarioConfig(num_objects=8, num_frames=400, max_speed=4.0, seed=2))
        for d in gt:
            assert d.x >= 1 and d.y >= 1
            assert d.x + d.w <= meta.img_width - 1
            assert d.y + d.h <= meta.img_height - 1

    def test_crossing_has_unique_iou_peak(self):
        gt, _ = generate(ScenarioConfig(num_objects=2, num_frames=100, crossings=1, seed=3))
        by_id = group(gt)
        a = {d.frame: d for d in by_id[1]}
        b = {d.frame: d for d in by_id[2]}
        curve = [(float(iou_pairs(a[f].box, b[f].box)), f) for f in sorted(a)]
        peak, frame = max(curve)
        assert peak > 0.5
        assert sum(1 for v, _ in curve if v == peak) == 1

    def test_too_many_objects_rejected(self):
        with pytest.raises(ScenarioError, match="too many"):
            generate(ScenarioConfig(num_objects=100, num_frames=10, img_width=400, img_height=300, seed=1))

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ScenarioError):
            generate(ScenarioConfig(num_objects=1, num_frames=10, img_width=50, img_height=50, seed=1))

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"min_speed": 5.0, "max_speed": 1.0}, r"^speeds must be finite with 0 <= min_speed <= max_speed, got 5\.0 and 1\.0$"),
            ({"min_speed": -0.5}, r"got -0\.5 and 1\.5$"),
            ({"min_speed": float("nan")}, r"got nan and 1\.5$"),
            ({"max_speed": float("inf")}, r"got 0\.3 and inf$"),
            ({"turn_rate": float("nan")}, r"^turn_rate must be finite, got nan$"),
            ({"turn_rate": float("-inf")}, r"^turn_rate must be finite, got -inf$"),
            ({"crossings": -1}, r"^crossings must lie in \[0, 2\] for 4 objects, got -1$"),
            ({"fps": 0.0}, r"^fps must be finite and positive, got 0\.0$"),
            ({"fps": float("nan")}, r"^fps must be finite and positive, got nan$"),
            ({"seed": -1}, r"^seed must be nonnegative, got -1$"),
            ({"num_objects": 2.5}, r"^num_objects must be an integer, got 2\.5$"),
            ({"num_objects": True}, r"^num_objects must be an integer, got True$"),
            ({"num_frames": 10.0}, r"^num_frames must be an integer, got 10\.0$"),
            ({"crossings": True}, r"^crossings must be an integer, got True$"),
            ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
            # the canvas is checked by SequenceMeta's rule, the one generate's meta meets
            ({"img_width": 1920.5}, r"^img_width must be a positive integer, got 1920\.5$"),
            ({"img_width": 10**400}, r"^img_width is too large for a float, got 10{400}$"),
            ({"img_width": 10**308}, r"^the image diagonal must be finite, got a 10{308} x 1080 image$"),
            ({"img_width": "1920"}, r"^img_width must be a number, got 1920$"),
        ],
    )
    def test_invalid_motion_rejected(self, kw, message):
        cfg = ScenarioConfig(**{"num_objects": 4, "num_frames": 10, "seed": 1, **kw})
        with pytest.raises(ScenarioError, match=message):
            cfg.validate()
        with pytest.raises(ScenarioError, match=message):
            generate(cfg)


class TestCorrupt:
    def make_gt(self, **kw):
        cfg = ScenarioConfig(num_objects=4, num_frames=120, seed=5, **kw)
        return generate(cfg)[0]

    def test_zero_probabilities_relabel_only(self):
        gt = self.make_gt()
        out, log = corrupt(gt, CorruptionConfig(seed=1))
        assert not log.cuts and not log.swaps and not log.drops
        assert len(out) == len(gt)
        key = lambda d: (d.frame, d.x, d.y, d.w, d.h)
        assert sorted(map(key, out)) == sorted(map(key, gt))
        assert len(log.fragments) == 4

    def test_random_cut_partitions_frames(self):
        gt = self.make_gt()
        out, log = corrupt(gt, CorruptionConfig(random_cuts_per_track=1, seed=2))
        assert len(log.cuts) == 4
        by_id = group(out)
        for cut in log.cuts:
            left = [d.frame for d in by_id[cut.left_id]]
            right = [d.frame for d in by_id[cut.right_id]]
            assert max(left) == cut.frame - 1
            assert min(right) == cut.frame + cut.gap
            assert cut.gap == 0

    def test_cut_gap_removes_frames(self):
        gt = self.make_gt()
        out, log = corrupt(gt, CorruptionConfig(random_cuts_per_track=2, gap_frames=(1, 2), seed=3))
        assert len(log.cuts) == 8
        removed = sum(c.gap for c in log.cuts)
        assert len(out) == len(gt) - removed
        assert all(1 <= c.gap <= 2 for c in log.cuts)

    def test_dropout_matches_log(self):
        gt = self.make_gt()
        out, log = corrupt(gt, CorruptionConfig(dropout=0.1, seed=4))
        assert len(out) == len(gt) - len(log.drops)
        gone = {(d.source, d.frame) for d in log.drops}
        present = {(f.source, d.frame) for f in log.fragments for d in group(out)[f.id]}
        assert not gone & present

    def test_deterministic_per_seed(self):
        gt = self.make_gt()
        cfg = CorruptionConfig(random_cuts_per_track=2, gap_frames=(1, 2), dropout=0.05, seed=11)
        a, _ = corrupt(gt, cfg)
        b, _ = corrupt(gt, cfg)
        assert a == b

    def test_swap_exchanges_tails_at_crossing(self):
        gt, _ = generate(ScenarioConfig(num_objects=2, num_frames=100, crossings=1, seed=3))
        out, log = corrupt(gt, CorruptionConfig(swap_prob=1.0, seed=6))
        assert len(log.swaps) >= 1
        swap = log.swaps[0]
        gt_by_id = group(gt)
        out_by_id = group(out)
        # after the swap frame, fragment 1 follows gt object 2's boxes
        frag1 = {d.frame: d for d in out_by_id[1]}
        probe = [d for d in gt_by_id[2] if d.frame >= swap.frame][5]
        assert frag1[probe.frame].box == probe.box

    def test_fragment_prob_cuts_at_crossing(self):
        gt, _ = generate(ScenarioConfig(num_objects=2, num_frames=100, crossings=1, seed=3))
        events = crossings(gt)
        assert events
        out, log = corrupt(gt, CorruptionConfig(fragment_prob=1.0, seed=7))
        assert len(log.cuts) == 2 * len(events)
        assert {c.frame for c in log.cuts} == {e.frame for e in events}

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"random_cuts_per_track": 1.5}, "random_cuts_per_track must be an integer, got 1.5"),
            ({"random_cuts_per_track": True}, "random_cuts_per_track must be an integer, got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"gap_frames": (0.5, 1)}, "gap_frames[0] must be an integer, got 0.5"),
            ({"gap_frames": (0, 2.0)}, "gap_frames[1] must be an integer, got 2.0"),
        ],
    )
    def test_counts_gap_bounds_and_seed_must_be_integers(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            corrupt(self.make_gt(), CorruptionConfig(**kw))

    @pytest.mark.parametrize("gap_frames", [(1, 2, 3), (1,), 3])
    def test_gap_frames_must_be_a_pair(self, gap_frames):
        with pytest.raises(ValueError, match=rf"^gap_frames must be a pair \(lo, hi\), got {re.escape(repr(gap_frames))}$"):
            CorruptionConfig(gap_frames=gap_frames).validate()

    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            CorruptionConfig(dropout=1.5).validate()
        with pytest.raises(ValueError):
            CorruptionConfig(gap_frames=(3, 1)).validate()


class TestCrossings:
    def test_detects_constructed_crossing(self):
        a = [Detection(f, 1, float(f), 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
        b = [Detection(f, 2, 20.0 - f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
        # coincident boxes at frame 10
        assert crossings(a + b) == [SwapRecord(1, 2, 10)]

    def test_no_events_when_apart(self):
        a = [Detection(f, 1, 0.0, 0.0, 10.0, 10.0, 1.0) for f in range(1, 11)]
        b = [Detection(f, 2, 500.0, 0.0, 10.0, 10.0, 1.0) for f in range(1, 11)]
        assert crossings(a + b) == []
