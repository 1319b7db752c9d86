import warnings

import numpy as np
import pytest

from trackstitch.mot_io import Detection
from trackstitch.tracklets import build_endpoints, cut_tracklets, group_tracklets, iou, iou_matrix, make_tracklet
from trackstitch.mot_io import DetectionTable
from trackstitch.tracklets import make_tracklets


def boxes_track(tid, frames, x0=0.0, vx=0.0, y0=0.0, vy=0.0, w=10.0, h=10.0):
    return [Detection(f, tid, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0]), w, h, 1.0) for f in frames]


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # intersection 5x10 = 50, union 100 + 100 - 50 = 150
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = tuple(rng.uniform(0.1, 50, size=4))
            b = tuple(rng.uniform(0.1, 50, size=4))
            assert iou(a, b) == pytest.approx(iou(b, a), abs=0)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_identical_float_boxes_never_exceed_one(self):
        # unclamped, rounding puts the IoU of each of these boxes with itself above 1
        for box in [(10.1, 20.3, 30.7, 40.9), (617.3, 201.9, 41.7, 88.3)]:
            assert iou(box, box) == 1.0
            assert iou_matrix([box], [box])[0, 0] == 1.0
        boxes = np.random.default_rng(5).uniform(0.5, 60, size=(500, 4))
        assert max(iou(tuple(b), tuple(b)) for b in boxes) <= 1.0
        assert iou_matrix(boxes, boxes).max() <= 1.0

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.5, 40, size=(6, 4))
        B = rng.uniform(0.5, 40, size=(5, 4))
        m = iou_matrix(A, B)
        for i in range(6):
            for j in range(5):
                assert m[i, j] == pytest.approx(iou(tuple(A[i]), tuple(B[j])), abs=1e-12)


def test_group_partitions_by_id():
    dets = [
        Detection(1, 1, 0, 0, 5, 5, 1),
        Detection(2, 1, 0, 0, 5, 5, 1),
        Detection(1, 2, 20, 20, 5, 5, 1),
    ]
    tls = group_tracklets(dets)
    assert sorted((t.id, len(t)) for t in tls) == [(1, 2), (2, 1)]
    assert sum(len(t) for t in tls) == len(dets)


def test_group_sorts_frames():
    dets = [Detection(f, 7, 0, 0, 5, 5, 1) for f in (3, 5, 4)]
    (t,) = group_tracklets(dets)
    assert [d.frame for d in t.detections] == [3, 4, 5]


def test_group_rejects_duplicate_frame():
    dets = [Detection(3, 7, 0, 0, 5, 5, 1), Detection(3, 7, 1, 1, 5, 5, 1)]
    with pytest.raises(ValueError, match=r"\(7,3\) duplicated"):
        group_tracklets(dets)


class TestEndpoints:
    def test_single_detection(self):
        start, end = build_endpoints([Detection(5, 1, 0, 0, 10, 10, 1)])
        assert start.frame == 5 and end.frame == 5
        assert start.box == (0, 0, 10, 10)
        assert start.velocity == (0.0, 0.0) and end.velocity == (0.0, 0.0)

    def test_two_detections_velocity(self):
        dets = [Detection(1, 1, 0, 0, 10, 10, 1), Detection(2, 1, 3, 0, 10, 10, 1)]
        start, end = build_endpoints(dets)
        assert start.velocity == (3.0, 0.0)
        assert end.velocity == (3.0, 0.0)
        assert start.box == (0, 0, 10, 10) and end.box == (3, 0, 10, 10)

    def test_short_track_uses_edge_boxes(self):
        dets = boxes_track(1, range(1, 9), vx=2.0)  # 8 < 10: no averaging
        start, end = build_endpoints(dets)
        assert start.box == dets[0].box
        assert end.box == dets[-1].box

    def test_long_track_averages_window(self):
        dets = boxes_track(1, range(1, 13), vx=2.0)  # 12 detections
        start, end = build_endpoints(dets)
        # positions 2..7 have x = 2..12, mean 7 (the box "at position 4.5")
        assert start.box == pytest.approx((7.0, 0.0, 10.0, 10.0), abs=1e-12)
        assert start.velocity == pytest.approx((2.0, 0.0), abs=0)
        # positions 6..11 have x = 10..20, mean 15
        assert end.box == pytest.approx((15.0, 0.0, 10.0, 10.0), abs=1e-12)
        assert end.velocity == pytest.approx((2.0, 0.0), abs=0)

    def test_constant_velocity_exact_with_gaps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vx, vy = rng.uniform(-3, 3, size=2)
            frames = np.unique(rng.integers(1, 60, size=15))
            if len(frames) < 10:
                continue
            dets = [Detection(int(f), 1, 100 + vx * f, 100 + vy * f, 8, 8, 1) for f in frames]
            start, end = build_endpoints(dets)
            assert start.velocity == pytest.approx((vx, vy), abs=1e-9)
            assert end.velocity == pytest.approx((vx, vy), abs=1e-9)

    def test_frames_always_outermost(self):
        dets = boxes_track(1, range(4, 30), vx=1.0)
        t = make_tracklet(1, dets)
        assert t.start.frame == 4 and t.end.frame == 29


class TestCutter:
    def crossing_tracklets(self):
        # boxes meet head-on: |xA - xB| = |2f - 20|, IoU >= 0.5 iff |dx| <= 10/3
        a = [Detection(f, 1, float(f), 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
        b = [Detection(f, 2, 20.0 - f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
        return group_tracklets(a + b)

    def test_no_overlap_is_noop(self):
        tls = group_tracklets(
            boxes_track(1, range(1, 21)) + boxes_track(2, range(1, 21), y0=100.0)
        )
        out = cut_tracklets(tls, 0.5)
        assert sorted((t.start.frame, t.end.frame) for t in out) == [(1, 20), (1, 20)]

    def test_single_frame_coincidence_cuts_both(self):
        a = boxes_track(1, range(1, 21), x0=0.0)
        b = boxes_track(2, range(1, 21), y0=100.0)
        b[9] = Detection(10, 2, 0.0, 0.0, 10.0, 10.0, 1.0)  # coincide at frame 10 only
        out = cut_tracklets(group_tracklets(a + b), 0.5)
        assert sorted((t.start.frame, t.end.frame) for t in out) == [(1, 9), (1, 9), (10, 20), (10, 20)]

    def test_sustained_overlap_cuts_once_on_rising_edge(self):
        out = cut_tracklets(self.crossing_tracklets(), 0.5)
        # overlap >= 0.5 during frames 9-11; one cut per tracklet at frame 9
        assert sorted((t.start.frame, t.end.frame) for t in out) == [(1, 8), (1, 8), (9, 20), (9, 20)]

    def test_preserves_detection_multiset(self):
        tls = self.crossing_tracklets()
        before = sorted((d.frame, d.x, d.y, d.w, d.h, d.conf) for t in tls for d in t.detections)
        out = cut_tracklets(tls, 0.5)
        after = sorted((d.frame, d.x, d.y, d.w, d.h, d.conf) for t in out for d in t.detections)
        assert before == after

    def test_fragments_are_contiguous_subruns(self):
        tls = self.crossing_tracklets()
        source = {t.id: [d.frame for d in t.detections] for t in tls}
        out = cut_tracklets(tls, 0.5)
        for frag in out:
            frames = [d.frame for d in frag.detections]
            matched = False
            for full in source.values():
                for i in range(len(full) - len(frames) + 1):
                    if full[i : i + len(frames)] == frames:
                        matched = True
            assert matched, f"fragment frames {frames} not a contiguous sub-run"

    def test_fresh_ids_are_unique(self):
        out = cut_tracklets(self.crossing_tracklets(), 0.5)
        ids = [t.id for t in out]
        assert len(ids) == len(set(ids))
        for t in out:
            assert all(d.track_id == t.id for d in t.detections)


def _reference_endpoints(dets, window, min_len):
    """Endpoint summaries computed from a list of Detection objects, one np.mean per value list."""

    def mean_box(part):
        return tuple(float(np.mean([getattr(d, k) for d in part])) for k in "xywh")

    def mean_velocity(part):
        steps = [
            ((b.x + b.w / 2.0 - (a.x + a.w / 2.0)) / (b.frame - a.frame),
             (b.y + b.h / 2.0 - (a.y + a.h / 2.0)) / (b.frame - a.frame))
            for a, b in zip(part, part[1:])
        ]
        return (float(np.mean([s[0] for s in steps])), float(np.mean([s[1] for s in steps])))

    n = len(dets)
    first, last = dets[0], dets[-1]
    if n >= min_len:
        head, tail = dets[1 : 1 + window], dets[n - 1 - window : n - 1]
        return (
            (first.frame, mean_box(head), mean_velocity(head)),
            (last.frame, mean_box(tail), mean_velocity(tail)),
        )
    if n >= 2:
        return (
            (first.frame, first.box, mean_velocity(dets[:2])),
            (last.frame, last.box, mean_velocity(dets[-2:])),
        )
    return ((first.frame, first.box, (0.0, 0.0)), (last.frame, last.box, (0.0, 0.0)))


def _summary(end):
    return (end.frame, end.box, end.velocity)


def test_endpoints_of_table_slices_equal_detection_list_endpoints():
    # repr compares every float exactly, nan included (a window of one step or none)
    rng = np.random.default_rng(17)
    for trial in range(150):
        window = int(rng.integers(1, 14))
        min_len = int(rng.integers(2, 16))
        runs = []
        for tid in range(1, int(rng.integers(1, 12)) + 1):
            n = int(rng.choice([1, 2, 3, min_len - 1, min_len, min_len + 1, window, window + 1, 40]))
            frames = np.sort(rng.choice(np.arange(1, 200), size=max(n, 1), replace=False))
            scale = 10.0 ** rng.integers(-3, 4)
            runs.append([
                Detection(int(f), tid, *(rng.uniform(-500, 500, 2) * scale).tolist(),
                          *(rng.uniform(0.5, 80, 2) * scale).tolist(), 1.0)
                for f in frames
            ])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # means of empty windows, as in the reference
            tracklets = group_tracklets([d for run in runs for d in run], window, min_len)
            assert len(tracklets) == len(runs)
            for t, run in zip(tracklets, runs):
                expected = _reference_endpoints(run, window, min_len)
                assert repr((_summary(t.start), _summary(t.end))) == repr(expected), (trial, window, min_len, len(run))
                assert repr(tuple(map(_summary, build_endpoints(run, window, min_len)))) == repr(expected)
                assert t.detections == run


def test_make_tracklets_equals_make_tracklet_per_run():
    rows = DetectionTable.of(
        boxes_track(1, range(1, 30), vx=1.5) + boxes_track(2, [3]) + boxes_track(3, [5, 9, 10], vy=-2.0)
    )
    bounds = [0, 29, 30, 33]
    together = make_tracklets(rows, bounds, 4, 5)
    assert together == [make_tracklet(tid, rows[lo:hi], 4, 5) for tid, lo, hi in zip((1, 2, 3), bounds, bounds[1:])]
    assert make_tracklets(rows[:0], [0]) == []
