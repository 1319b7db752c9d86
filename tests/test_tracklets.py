import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackstitch.tracklets as tracklets_module
from trackstitch.associator import STOP, build_domains, solve_with_stats, stitch
from trackstitch.mot_io import Detection
from trackstitch.scoring import ScoreConfig
from trackstitch.synth import CorruptionConfig, ScenarioConfig, corrupt, generate
from trackstitch.tracklets import cut_tracklets, group_tracklets, iou_matrix, iou_pairs, pair_runs
from trackstitch.mot_io import DetectionTable
from trackstitch.tracklets import EndpointArrays, Tracklet, Tracklets, run_bounds


def boxes_track(tid, frames, x0=0.0, vx=0.0, y0=0.0, vy=0.0, w=10.0, h=10.0):
    return [Detection(f, tid, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0]), w, h, 1.0) for f in frames]


def _scalar_iou(box_a, box_b):
    # the IoU formula in plain Python floats, the reference for iou_pairs
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return min(inter / (aw * ah + bw * bh - inter), 1.0)


class TestIou:
    def test_identical(self):
        assert float(iou_pairs((0, 0, 10, 10), (0, 0, 10, 10))) == 1.0

    def test_disjoint(self):
        assert float(iou_pairs((0, 0, 10, 10), (20, 20, 5, 5))) == 0.0

    def test_half_overlap(self):
        # intersection 5x10 = 50, union 100 + 100 - 50 = 150
        assert float(iou_pairs((0, 0, 10, 10), (5, 0, 10, 10))) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = tuple(rng.uniform(0.1, 50, size=4))
            b = tuple(rng.uniform(0.1, 50, size=4))
            assert float(iou_pairs(a, b)) == pytest.approx(float(iou_pairs(b, a)), abs=0)
            assert 0.0 <= float(iou_pairs(a, b)) <= 1.0

    def test_identical_float_boxes_never_exceed_one(self):
        # unclamped, rounding puts the IoU of each of these boxes with itself above 1
        for box in [(10.1, 20.3, 30.7, 40.9), (617.3, 201.9, 41.7, 88.3)]:
            assert float(iou_pairs(box, box)) == 1.0
            assert iou_matrix([box], [box])[0, 0] == 1.0
        boxes = np.random.default_rng(5).uniform(0.5, 60, size=(500, 4))
        assert iou_pairs(boxes.T, boxes.T).max() <= 1.0
        assert iou_matrix(boxes, boxes).max() <= 1.0

    def test_pairs_equal_plain_python_formula_bit_for_bit(self):
        rng = np.random.default_rng(8)
        n = 20_000
        a = rng.uniform(0.5, 60, size=(4, n))
        b = a + rng.choice([0.0, 1e-9, 0.5, 3.0, 40.0], size=(4, n)) * rng.uniform(-1, 1, size=(4, n))
        b[2:] = np.abs(b[2:]) + 0.25
        b[:, ::7] = a[:, ::7]  # identical boxes, where rounding reaches past 1
        b[0, 1::7] = a[0, 1::7] + a[2, 1::7]  # touching edges
        expected = [_scalar_iou(p, q) for p, q in zip(a.T.tolist(), b.T.tolist())]
        assert iou_pairs(a, b).tolist() == expected
        assert [float(iou_pairs(p, q)) for p, q in zip(a.T[:500].tolist(), b.T[:500].tolist())] == expected[:500]
        assert 0.0 in expected and 1.0 in expected

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.5, 40, size=(6, 4))
        B = rng.uniform(0.5, 40, size=(5, 4))
        m = iou_matrix(A, B)
        for i in range(6):
            for j in range(5):
                assert m[i, j] == pytest.approx(float(iou_pairs(tuple(A[i]), tuple(B[j]))), abs=1e-12)


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


def _ends(detections, window=6, min_len=10):
    """The endpoint columns of one run of detections, one row."""
    return Tracklets(DetectionTable.of(detections), window, min_len).ends


class TestEndpoints:
    def test_single_detection(self):
        ends = _ends([Detection(5, 1, 0, 0, 10, 10, 1)])
        assert ends.start_frame.tolist() == [5] and ends.end_frame.tolist() == [5]
        assert ends.start_box.tolist() == [[0, 0, 10, 10]]
        assert ends.start_velocity.tolist() == [[0.0, 0.0]] and ends.end_velocity.tolist() == [[0.0, 0.0]]

    def test_two_detections_velocity(self):
        dets = [Detection(1, 1, 0, 0, 10, 10, 1), Detection(2, 1, 3, 0, 10, 10, 1)]
        ends = _ends(dets)
        assert ends.start_velocity.tolist() == [[3.0, 0.0]]
        assert ends.end_velocity.tolist() == [[3.0, 0.0]]
        assert ends.start_box.tolist() == [[0, 0, 10, 10]] and ends.end_box.tolist() == [[3, 0, 10, 10]]

    def test_short_track_uses_edge_boxes(self):
        dets = boxes_track(1, range(1, 9), vx=2.0)  # 8 < 10: no averaging
        ends = _ends(dets)
        assert ends.start_box.tolist() == [list(dets[0].box)]
        assert ends.end_box.tolist() == [list(dets[-1].box)]

    def test_long_track_averages_window(self):
        dets = boxes_track(1, range(1, 13), vx=2.0)  # 12 detections
        ends = _ends(dets)
        # positions 2..7 have x = 2..12, mean 7 (the box "at position 4.5")
        assert ends.start_box[0].tolist() == pytest.approx([7.0, 0.0, 10.0, 10.0], abs=1e-12)
        assert ends.start_velocity[0].tolist() == pytest.approx([2.0, 0.0], abs=0)
        # positions 6..11 have x = 10..20, mean 15
        assert ends.end_box[0].tolist() == pytest.approx([15.0, 0.0, 10.0, 10.0], abs=1e-12)
        assert ends.end_velocity[0].tolist() == pytest.approx([2.0, 0.0], abs=0)

    def test_constant_velocity_exact_with_gaps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vx, vy = rng.uniform(-3, 3, size=2)
            frames = np.unique(rng.integers(1, 60, size=15))
            if len(frames) < 10:
                continue
            dets = [Detection(int(f), 1, 100 + vx * f, 100 + vy * f, 8, 8, 1) for f in frames]
            ends = _ends(dets)
            assert ends.start_velocity[0].tolist() == pytest.approx([vx, vy], abs=1e-9)
            assert ends.end_velocity[0].tolist() == pytest.approx([vx, vy], abs=1e-9)

    def test_frames_always_outermost(self):
        dets = boxes_track(1, range(4, 30), vx=1.0)
        ends = _ends(dets)
        assert ends.start_frame.tolist() == [4] and ends.end_frame.tolist() == [29]


def _spans(tracklets):
    """The sorted (first frame, last frame) of every tracklet."""
    return sorted(zip(tracklets.ends.start_frame.tolist(), tracklets.ends.end_frame.tolist()))


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
        assert _spans(out) == [(1, 20), (1, 20)]

    def test_single_frame_coincidence_cuts_both(self):
        a = boxes_track(1, range(1, 21), x0=0.0)
        b = boxes_track(2, range(1, 21), y0=100.0)
        b[9] = Detection(10, 2, 0.0, 0.0, 10.0, 10.0, 1.0)  # coincide at frame 10 only
        out = cut_tracklets(group_tracklets(a + b), 0.5)
        assert _spans(out) == [(1, 9), (1, 9), (10, 20), (10, 20)]

    def test_sustained_overlap_cuts_once_on_rising_edge(self):
        out = cut_tracklets(self.crossing_tracklets(), 0.5)
        # overlap >= 0.5 during frames 9-11; one cut per tracklet at frame 9
        assert _spans(out) == [(1, 8), (1, 8), (9, 20), (9, 20)]

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
    """The endpoint columns of one run, as lists of one row, computed from Detection objects, one np.mean per value list."""

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
        start, end = (mean_box(head), mean_velocity(head)), (mean_box(tail), mean_velocity(tail))
    elif n >= 2:
        start, end = (first.box, mean_velocity(dets[:2])), (last.box, mean_velocity(dets[-2:]))
    else:
        start, end = (first.box, (0.0, 0.0)), (last.box, (0.0, 0.0))
    return {
        "start_frame": [first.frame], "end_frame": [last.frame],
        "start_box": [list(start[0])], "end_box": [list(end[0])],
        "start_velocity": [list(start[1])], "end_velocity": [list(end[1])],
    }


def test_endpoints_of_table_slices_equal_detection_list_endpoints():
    # repr compares every float exactly
    rng = np.random.default_rng(17)
    for trial in range(150):
        window = int(rng.integers(2, 14))
        min_len = int(rng.integers(window + 1, 16))
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
        tracklets = group_tracklets([d for run in runs for d in run], window, min_len)
        assert len(tracklets) == len(runs)
        for k, (t, run) in enumerate(zip(tracklets, runs)):
            expected = _reference_endpoints(run, window, min_len)
            alone = _ends(run, window, min_len)
            for name, want in expected.items():
                assert repr(getattr(tracklets.ends, name)[k : k + 1].tolist()) == repr(want), (trial, window, min_len, len(run), name)
                assert repr(getattr(alone, name).tolist()) == repr(want)
            assert t.detections == run


def _runs(lengths):
    """Runs of the given lengths, one id each, moving 2 px per frame; the table and its bounds."""
    dets = [d for tid, n in enumerate(lengths, 1) for d in boxes_track(tid, range(1, n + 1), vx=2.0)]
    return DetectionTable.of(dets), np.cumsum([0, *lengths]).tolist()


def test_tracklets_accept_exactly_the_windows_from_2_below_min_len():
    for window in range(-1, 14):
        for min_len in range(0, 16):
            rows, bounds = _runs([1, 2, 3, max(min_len - 1, 1), max(min_len, 1), min_len + 1, 20])
            if not 2 <= window < min_len:
                with pytest.raises(ValueError, match=rf"^window must satisfy 2 <= window < min_len, got window={window}, min_len={min_len}$"):
                    Tracklets(rows, window, min_len)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ends = Tracklets(rows, window, min_len).ends  # summaries are computed on read
            # every window holds a step, so every run that moves has the velocity of its steps
            for n, start, end in zip(np.diff(bounds).tolist(), ends.start_velocity.tolist(), ends.end_velocity.tolist()):
                expected = [2.0, 0.0] if n > 1 else [0.0, 0.0]
                assert start == expected and end == expected, (window, min_len, n)


@pytest.mark.parametrize("window, min_len", [(1, 10), (0, 10), (10, 10), (12, 10), (6, 2), (2, 2)])
def test_every_tracklet_builder_rejects_a_window_outside_the_rule(window, min_len):
    dets = boxes_track(1, range(1, 21)) + boxes_track(2, range(1, 21), y0=100.0)
    rows, _ = _runs([20, 20])
    tracklets = group_tracklets(dets)
    builders = [
        lambda: Tracklets(rows, window, min_len),
        lambda: group_tracklets(dets, window, min_len),
        lambda: cut_tracklets(tracklets, 0.5, window, min_len),  # no overlap, so nothing is cut
        lambda: stitch({1: STOP, 2: STOP}, tracklets, window, min_len),
    ]
    for build in builders:
        with pytest.raises(ValueError, match=rf"^window must satisfy 2 <= window < min_len, got window={window}, min_len={min_len}$"):
            build()


@pytest.mark.parametrize("window, min_len, name", [(3.0, 10, "window"), (3, float("nan"), "min_len")])
def test_every_tracklet_builder_rejects_a_window_that_is_not_an_integer(window, min_len, name):
    dets = boxes_track(1, range(1, 21)) + boxes_track(2, range(1, 21), y0=100.0)
    rows, _ = _runs([20, 20])
    tracklets = group_tracklets(dets)
    builders = [
        lambda: Tracklets(rows, window, min_len),
        lambda: group_tracklets(dets, window, min_len),
        lambda: cut_tracklets(tracklets, 0.5, window, min_len),
        lambda: stitch({1: STOP, 2: STOP}, tracklets, window, min_len),
    ]
    value = window if name == "window" else min_len
    for build in builders:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            build()
    assert len(Tracklets(rows, np.int64(3), np.int64(10))) == 2


def test_tracklets_summarize_each_run_as_if_alone():
    rows = DetectionTable.of(
        boxes_track(1, range(1, 30), vx=1.5) + boxes_track(2, [3]) + boxes_track(3, [5, 9, 10], vy=-2.0)
    )
    bounds = [0, 29, 30, 33]
    together = Tracklets(rows, 4, 5)
    assert together.bounds.tolist() == bounds and together.ids.tolist() == [1, 2, 3]
    alone = [Tracklets(rows[lo:hi], 4, 5) for lo, hi in zip(bounds, bounds[1:])]
    assert together == [t for one in alone for t in one]
    for column in fields(EndpointArrays):
        want = np.concatenate([getattr(one.ends, column.name) for one in alone])
        assert repr(getattr(together.ends, column.name).tolist()) == repr(want.tolist()), column.name
    assert Tracklets(rows[:0]) == []


def _reference_cut(tracklets, cut_threshold, window=6, min_len=10):
    """The per-frame cutter: one IoU matrix per frame, and the last overlapping frame of each pair in a dict."""
    whole, tracklets = tracklets, list(tracklets)
    rows = DetectionTable.concat(t.detections for t in tracklets)
    order = np.argsort(rows.frame, kind="stable")
    frames = rows.frame[order]
    owners = np.repeat(np.arange(len(tracklets)), [len(t) for t in tracklets])[order].tolist()
    boxes = rows.boxes[order]

    cut_frames = {}
    last_overlap = {}
    bounds = run_bounds(frames)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo < 2:
            continue
        frame = frames[lo].item()
        matrix = iou_matrix(boxes[lo:hi], boxes[lo:hi])
        for i, j in zip(*np.nonzero(np.triu(matrix >= cut_threshold, 1))):
            ti, tj = owners[lo + i], owners[lo + j]
            if ti != tj:
                pair = (min(ti, tj), max(ti, tj))
                if last_overlap.get(pair) != frame - 1:
                    cut_frames.setdefault(ti, set()).add(frame)
                    cut_frames.setdefault(tj, set()).add(frame)
                last_overlap[pair] = frame

    pieces, sizes, piece_count = [], [], {}
    for idx, t in enumerate(tracklets):
        cuts = sorted(f for f in cut_frames.get(idx, ()) if f > t.detections.frame[0])
        if cuts:
            splits = [0, *np.searchsorted(t.detections.frame, cuts).tolist(), len(t)]
            pieces.append(t.detections)
            sizes += np.diff(splits).tolist()
            piece_count[idx] = len(splits) - 1
    if not pieces:
        return whole
    first_id = max(t.id for t in tracklets) + 1
    piece_ids = np.repeat(np.arange(first_id, first_id + len(sizes)), sizes)
    piece_rows = DetectionTable.concat(pieces).relabeled(piece_ids)
    fragments = iter(Tracklets(piece_rows, window, min_len))
    out = []
    for idx, t in enumerate(tracklets):
        if idx in piece_count:
            out.extend(next(fragments) for _ in range(piece_count[idx]))
        else:
            out.append(t)
    # every tracklet, untouched ones included, summarized from its own rows
    return Tracklets(DetectionTable.concat(t.detections for t in out), window, min_len)


def _assert_same_cut(got, want):
    assert got.ids.tolist() == want.ids.tolist()
    for column in fields(EndpointArrays):
        assert repr(getattr(got.ends, column.name).tolist()) == repr(getattr(want.ends, column.name).tolist()), column.name
    assert all(a.detections == b.detections for a, b in zip(got, want))


# (x offset, x unit, y unit): small integers, far from zero, and subnormal
# multiples in x (with a y unit that keeps every area a normal float)
_GRIDS = [(0.0, 1.0, 1.0), (0.0, 0.1, 0.1), (1e15, 1.0, 1.0), (0.0, 5e-324, 2.0**1000), (-3.5e15, 0.5, 7.0)]


def _grid_tracklets(tracks, grid, window, min_len):
    """Tracklets from ``(tid, [(frame, gx, gy, gw, gh, nudge), ...])`` on one of ``_GRIDS``.

    Boxes on a coarse grid are often identical, share x or touch exactly;
    ``nudge`` adds the smallest subnormal to x. Frames are distinct, and sorted
    here.
    """
    offset, unit, y_unit = _GRIDS[grid]
    runs = [
        DetectionTable.of([
            Detection(f, tid, offset + gx * unit + nudge * 5e-324, gy * y_unit, gw * unit, gh * y_unit, 1.0)
            for f, gx, gy, gw, gh, nudge in sorted(rows)
        ])
        for tid, rows in tracks
    ]
    return Tracklets(DetectionTable.concat(runs), window, min_len)


def _random_tracks(rng):
    tracks = []
    for tid in rng.choice(np.arange(1, 40), size=int(rng.integers(2, 9)), replace=False).tolist():
        frames = rng.choice(np.arange(1, 25), size=int(rng.integers(1, 15)), replace=False).tolist()
        rows = [
            (f, int(rng.integers(0, 4)) * 5, int(rng.integers(0, 3)) * 5, int(rng.integers(1, 3)) * 5,
             int(rng.integers(1, 3)) * 5, int(rng.random() < 0.1))
            for f in frames
        ]
        tracks.append((tid, rows))
    return tracks


def _cut_both(tracklets, threshold, window, min_len):
    return cut_tracklets(tracklets, threshold, window, min_len), _reference_cut(tracklets, threshold, window, min_len)


@pytest.mark.parametrize("threshold", [1.0, 0.5, 1e-12])
def test_cut_matches_per_frame_loop(threshold):
    rng = np.random.default_rng(int(threshold * 1000) + 5)
    cuts = 0
    for trial in range(150):
        window = int(rng.integers(2, 5))
        min_len = int(rng.integers(window + 1, 7))
        tracklets = _grid_tracklets(_random_tracks(rng), trial % len(_GRIDS), window, min_len)
        got, want = _cut_both(tracklets, threshold, window, min_len)
        _assert_same_cut(got, want)
        cuts += len(want) - len(tracklets)
    assert cuts > 0


def test_cut_on_continuous_coordinates_matches_per_frame_loop():
    rng = np.random.default_rng(41)
    for trial in range(60):
        scale = 10.0 ** int(rng.integers(-3, 16))
        dets = [
            Detection(int(f), tid, *(rng.uniform(0, 100, 2) * scale).tolist(), *(rng.uniform(20, 60, 2) * scale).tolist(), 1.0)
            for tid in range(1, 7) for f in range(1, 31)
        ]
        tracklets = group_tracklets(dets, 3, 5)
        _assert_same_cut(*_cut_both(tracklets, float(rng.choice([1.0, 0.5, 1e-12, 0.3])), 3, 5))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_cut_does_not_depend_on_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(8)
    inputs = [_grid_tracklets(_random_tracks(rng), k % len(_GRIDS), 2, 4) for k in range(40)]
    monkeypatch.setattr(tracklets_module, "_PAIR_CHUNK", chunk)
    for tracklets in inputs:
        _assert_same_cut(*_cut_both(tracklets, 0.5, 2, 4))


@st.composite
def grid_tracks(draw):
    tracks = []
    for tid in draw(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True)):
        rows = draw(st.lists(
            st.tuples(st.integers(1, 12), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3), st.integers(1, 3), st.integers(0, 1)),
            min_size=1, max_size=10, unique_by=lambda row: row[0],  # one row per frame
        ))
        tracks.append((tid, [(f, gx * 5, gy * 5, gw * 5, gh * 5, nudge) for f, gx, gy, gw, gh, nudge in rows]))
    return tracks


# the (window, min_len) pairs that Tracklets accepts, up to a min_len of 6
valid_windows = st.integers(2, 5).flatmap(lambda window: st.tuples(st.just(window), st.integers(window + 1, 6)))


@given(grid_tracks(), st.integers(0, len(_GRIDS) - 1), st.sampled_from([1.0, 0.5, 1e-12]), valid_windows)
@settings(max_examples=150, deadline=None)
def test_cut_matches_per_frame_loop_property(tracks, grid, threshold, windows):
    window, min_len = windows
    tracklets = _grid_tracklets(tracks, grid, window, min_len)
    _assert_same_cut(*_cut_both(tracklets, threshold, window, min_len))


def test_sweep_windows_hold_every_later_row_of_the_frame_left_of_the_right_edge():
    rng = np.random.default_rng(3)
    overflowed = 0
    for trial in range(300):
        n = int(rng.integers(0, 40))
        frames = rng.integers(1, 5, n)
        if trial % 3 == 0:
            frames *= 2**40
        elif trial % 3 == 1:
            # frames 1 apart that round to one float
            frames += 2**62
        x = rng.choice([-0.0, 0.0, 5.0, 10.0, 1e15, 1e15 + 0.125, 5e-324, -3.0, 1e308], n)
        with np.errstate(over="ignore"):
            # 1e308 + 1e308 overflows to inf
            right = x + rng.choice([5.0, 5e-324, 0.125, 1e300, 1e308], n)
        overflowed += int(np.isinf(right).any())
        order, ends = tracklets_module._sweep(tracklets_module.ranks(frames), x, right)
        assert sorted(order.tolist()) == list(range(n))
        swept = frames[order]
        # the frames stay grouped, in rank order
        assert (swept[1:] >= swept[:-1]).all()
        frame_end = np.searchsorted(swept, swept, side="right")
        for k, row in enumerate(order.tolist()):
            # the window never leaves the frame
            assert k < ends[k] <= frame_end[k]
            left_of_edge = [p for p in range(k + 1, frame_end[k]) if x[order[p]] < right[row]]
            assert max(left_of_edge, default=k) < ends[k]
    assert overflowed > 10


def test_same_frame_overlaps_finds_every_pair_of_a_frame_at_the_threshold():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(0, 30))
        frames = rng.integers(1, 4, n)
        boxes = np.stack([rng.choice([0.0, 2.5, 5.0, 7.5], n), rng.choice([0.0, 2.5], n), rng.choice([5.0, 10.0], n), rng.choice([5.0, 10.0], n)])
        if trial % 2:  # boxes off the dyadic grid, whose IoUs round
            boxes *= rng.uniform(0.9, 1.1, (4, n))
        rows = DetectionTable(frames, np.arange(1, n + 1), *boxes, np.ones(n))
        threshold = [1.0, 0.5, 1e-9][trial % 3]
        i, j, ious = tracklets_module.same_frame_overlaps(rows, threshold)
        matrix = iou_matrix(boxes.T, boxes.T)
        expected = {(a, b): matrix[a, b].item() for a in range(n) for b in range(a + 1, n) if frames[a] == frames[b] and matrix[a, b] >= threshold}
        found = dict(zip(zip(i.tolist(), j.tolist()), ious.tolist()))
        assert len(found) == len(i)
        # repr compares every float exactly
        assert repr(sorted(found.items())) == repr(sorted(expected.items()))


def _random_side(rng, n, frames, off_grid):
    """n rows of frames drawn from ``frames``, boxes on a 2.5-pixel grid (x = -0.0 included), or scaled off it."""
    boxes = np.stack([
        rng.choice([-0.0, 0.0, 2.5, 5.0, 7.5], n), rng.choice([0.0, 2.5], n), rng.choice([5.0, 10.0], n), rng.choice([5.0, 10.0], n),
    ])
    if off_grid:  # boxes whose IoUs round
        boxes *= rng.uniform(0.9, 1.1, (4, n))
    return DetectionTable(rng.choice(frames, n), np.arange(1, n + 1), *boxes, np.ones(n))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
def test_cross_overlaps_finds_every_pair_of_the_two_sides_once(monkeypatch, chunk):
    monkeypatch.setattr(tracklets_module, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for trial in range(150):
        # either side may be empty, and frames 1 and 4 hold one side's rows only
        n_a = 0 if trial % 10 == 0 else int(rng.integers(0, 25))
        n_b = 0 if trial % 10 == 1 else int(rng.integers(0, 25))
        a = _random_side(rng, n_a, [1, 2, 3], trial % 2)
        b = _random_side(rng, n_b, [2, 3, 4], trial % 2)
        threshold = [1.0, 0.5, 1e-9][trial % 3]
        i, j, ious = tracklets_module.cross_overlaps(a, b, threshold)
        matrix = iou_matrix(a.boxes, b.boxes)
        expected = {
            (p, q): matrix[p, q].item()
            for p in range(n_a) for q in range(n_b) if a.frame[p] == b.frame[q] and matrix[p, q] >= threshold
        }
        found = dict(zip(zip(i.tolist(), j.tolist()), ious.tolist()))
        assert len(found) == len(i)
        # repr compares every float exactly
        assert repr(sorted(found.items())) == repr(sorted(expected.items()))


def _with_far_box(rng, side, far):
    """``side`` with the x of one random row set to ``far``."""
    x = side.x.copy()
    x[rng.integers(len(x))] = far
    return DetectionTable(side.frame, side.track_id, x, side.y, side.w, side.h, side.conf)


@pytest.mark.parametrize("far", [1e15, 1e15 + 2.5, 1e16, -1e16])
def test_overlaps_match_iou_matrix_when_one_far_box_makes_the_keys_coarse(far):
    rng = np.random.default_rng(13)
    for trial in range(150):
        n_a, n_b = int(rng.integers(1, 25)), int(rng.integers(0, 25))
        # one box far out on a side, and on the other side too in every other trial
        a = _with_far_box(rng, _random_side(rng, n_a, [1, 2, 3], trial % 2), far)
        b = _random_side(rng, n_b, [2, 3, 4], trial % 2)
        if n_b and trial % 2:
            b = _with_far_box(rng, b, far + rng.choice([0.0, 2.5]))
        threshold = [1.0, 0.5, 1e-9][trial % 3]
        matrix = iou_matrix(a.boxes, b.boxes)
        expected = {
            (p, q): matrix[p, q].item()
            for p in range(n_a) for q in range(n_b) if a.frame[p] == b.frame[q] and matrix[p, q] >= threshold
        }
        i, j, ious = tracklets_module.cross_overlaps(a, b, threshold)
        found = dict(zip(zip(i.tolist(), j.tolist()), ious.tolist()))
        assert len(found) == len(i)
        # repr compares every float exactly
        assert repr(sorted(found.items())) == repr(sorted(expected.items()))
        matrix = iou_matrix(a.boxes, a.boxes)
        expected = {
            (p, q): matrix[p, q].item()
            for p in range(n_a) for q in range(p + 1, n_a) if a.frame[p] == a.frame[q] and matrix[p, q] >= threshold
        }
        i, j, ious = tracklets_module.same_frame_overlaps(a, threshold)
        found = dict(zip(zip(i.tolist(), j.tolist()), ious.tolist()))
        assert len(found) == len(i)
        assert repr(sorted(found.items())) == repr(sorted(expected.items()))


def test_pair_runs_end_where_the_pair_changes_or_the_step_skips():
    a = np.array([2, 1, 1, 1, 1, 1])
    b = np.array([3, 2, 2, 2, 3, 2])
    step = np.array([5, 4, 1, 2, 3, 7])
    order, bounds = pair_runs(a, b, step)
    hits = list(zip(a[order].tolist(), b[order].tolist(), step[order].tolist()))
    runs = [hits[lo:hi] for lo, hi in zip(bounds.tolist(), bounds[1:].tolist())]
    assert runs == [[(1, 2, 1), (1, 2, 2)], [(1, 2, 4)], [(1, 2, 7)], [(1, 3, 3)], [(2, 3, 5)]]
    # no hits make no runs
    order, bounds = pair_runs(*[np.empty(0, dtype=np.int64)] * 3)
    assert len(order) == 0 and bounds.tolist() == [0]


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_cut_rejects_threshold_outside_unit_interval(threshold):
    tracklets = group_tracklets(boxes_track(1, range(1, 5)) + boxes_track(2, range(1, 5)))
    with pytest.raises(ValueError, match=r"^cut_threshold must lie in \(0, 1\], got "):
        cut_tracklets(tracklets, threshold)


@pytest.mark.parametrize(
    "frames, message",
    [
        ([1, 2, 2], r"^\(7,2\) duplicated: track 7 has two detections in frame 2$"),
        ([5, 2], r"^track 7 goes back in time: frame 2 follows frame 5$"),
        ([1, 3, 4, 4, 2], r"^\(7,4\) duplicated: track 7 has two detections in frame 4$"),
    ],
    ids=["repeated", "going back", "first fault named"],
)
def test_tracklet_frames_must_increase_strictly(frames, message):
    dets = [Detection(f, 7, 0.0, 0.0, 5.0, 5.0, 1.0) for f in frames]
    with pytest.raises(ValueError, match=message):
        Tracklets(DetectionTable.of(dets))
    rows = DetectionTable.of(boxes_track(1, [1, 2]) + dets + boxes_track(3, [1]))
    with pytest.raises(ValueError, match=message):
        Tracklets(rows)


def test_tracklets_name_each_run_exactly_once():
    # ids that run 1, 2, 1 would make two tracklets named 1
    rows = DetectionTable.of(boxes_track(1, range(1, 11)))
    with pytest.raises(ValueError, match="^duplicate tracklet id 1$"):
        Tracklets(rows[:5] + boxes_track(2, range(1, 4)) + rows[5:])
    assert Tracklets(rows).ids.tolist() == [1]
    # a tracklet is named by its rows' track id
    (t,) = Tracklets(rows.relabeled(5))
    assert t.id == 5 and t.detections.track_id.tolist() == [5] * 10


def test_tracklets_of_grouped_rows_equal_group_tracklets():
    gt, _ = generate(ScenarioConfig(num_objects=8, num_frames=120, crossings=3, seed=4))
    tracker, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, random_cuts_per_track=2, gap_frames=(1, 3), seed=4))
    rows = tracker.take(np.lexsort((tracker.frame, tracker.track_id)))
    for window, min_len in ((2, 3), (6, 10)):
        got, want = Tracklets(rows, window, min_len), group_tracklets(tracker, window, min_len)
        assert got.bounds.tolist() == want.bounds.tolist() and got.ids.tolist() == want.ids.tolist()
        for column in fields(EndpointArrays):
            assert repr(getattr(got.ends, column.name).tolist()) == repr(getattr(want.ends, column.name).tolist()), column.name


def test_an_empty_table_has_no_tracklets():
    tracklets = Tracklets(DetectionTable.of(()))
    assert len(tracklets) == 0 and tracklets == [] and list(tracklets) == []
    assert tracklets.bounds.tolist() == [0] and tracklets.ids.tolist() == []
    assert tracklets.ends.start_box.shape == (0, 4) and tracklets.ends.end_velocity.shape == (0, 2)


@pytest.mark.parametrize("kind", ["stable", "quicksort"])
def test_ranks_equal_the_inverse_of_unique(kind):
    rng = np.random.default_rng(4)
    a, b = np.sort(rng.integers(1, 50, 300)), np.sort(rng.integers(1, 50, 200))
    cases = [
        rng.integers(1, 50, 500),
        a,
        np.concatenate((a, b)),
        a[::-1].copy(),
        np.empty(0, dtype=np.int64),
        np.array([7]),
        # 1 apart, and equal as floats
        2**62 + rng.integers(0, 4, 100),
        np.concatenate((2**62 + a, 2**62 + b)),
    ]
    for values in cases:
        rank = tracklets_module.ranks(values, kind)
        expected = np.unique(values, return_inverse=True)[1].reshape(-1)
        assert rank.dtype == expected.dtype and np.array_equal(rank, expected)


@pytest.mark.parametrize("frames, window", [([1, 2], 1), ([1, 2, 2], 6), ([5, 2], 6)], ids=["window", "repeated", "going back"])
def test_repr_of_tracklets_whose_checks_raised_returns(frames, window):
    rows = DetectionTable.of([Detection(f, 7, 0.0, 0.0, 5.0, 5.0, 1.0) for f in frames])
    tracklets = Tracklets.__new__(Tracklets)
    with pytest.raises(ValueError):
        tracklets.__init__(rows, window, 10)
    assert repr(tracklets).startswith("Tracklets([Tracklet(id=7, detections=DetectionTable([Detection(frame=")


def test_cut_memory_is_bounded_on_a_frame_stack():
    # 200 frames of 300 boxes that share one x, stacked in y, so every same-frame
    # pair is a candidate; the stack alternates between 20 frames apart and 20
    # overlapping (neighbours at IoU 7/13), so every overlap block cuts
    frames = np.tile(np.arange(1, 201), 300)
    ids = np.repeat(np.arange(1, 301), 200)
    spacing = np.where((frames - 1) // 20 % 2 == 0, 12.0, 3.0)
    n = len(frames)
    table = DetectionTable(frames, ids, np.full(n, 50.0), (ids - 1) * spacing, np.full(n, 10.0), np.full(n, 10.0), np.ones(n))
    tracklets = Tracklets(table)
    assert tracklets.bounds.tolist() == list(range(0, n + 1, 200))
    tracemalloc.start()
    try:
        out = cut_tracklets(tracklets, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert len(out) == 300 * 6
    _assert_same_cut(out, _reference_cut(tracklets, 0.5))


class TestTrackletColumns:
    def test_reads_like_a_list_of_tracklets(self):
        rows, bounds = _runs([3, 12, 1])
        tracklets = Tracklets(rows, 4, 5)
        as_list = [Tracklet(tid, rows[lo:hi]) for tid, lo, hi in zip((1, 2, 3), bounds, bounds[1:])]
        assert len(tracklets) == 3 and tracklets == as_list and tracklets == tuple(as_list)
        assert tracklets[-1] == tracklets[2] == as_list[2]
        assert tracklets != as_list[:2]
        with pytest.raises(IndexError):
            tracklets[3]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_summaries_are_a_function_of_the_rows(self, seed):
        # tracklets grouped over a window of 2, then cut and stitched over a
        # window of 6: every output is summarized from its own rows with its
        # own window, the tracklets the cutter leaves whole included
        gt, meta = generate(ScenarioConfig(num_objects=12, num_frames=200, crossings=4, seed=seed))
        tracker, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, random_cuts_per_track=2, gap_frames=(1, 3), seed=seed))
        grouped = group_tracklets(tracker, 2, 3)
        cut = cut_tracklets(grouped, 0.5, 6, 10)
        assert len(cut) > len(grouped) and np.isin(cut.ids, grouped.ids).any()
        assignment, _ = solve_with_stats(build_domains(cut, ScoreConfig(), meta))
        stitched = stitch(assignment, cut, 6, 10)
        for out, window, min_len in ((grouped, 2, 3), (cut, 6, 10), (stitched, 6, 10)):
            want = Tracklets(out.rows, window, min_len).ends
            for column in fields(EndpointArrays):
                assert np.array_equal(getattr(out.ends, column.name), getattr(want, column.name)), column.name
