import numpy as np
import pytest

from trackstitch.interpolate import fill_gaps
from trackstitch.mot_io import Detection


def det(frame, x=0.0, y=0.0, w=10.0, h=10.0, tid=1, conf=0.7):
    return Detection(frame, tid, x, y, w, h, conf)


def test_fills_gap_with_hand_computed_boxes():
    # centers go (5,5) -> (11,11); sizes (10,10) -> (10,16)
    traj = [det(10), Detection(13, 1, 6.0, 3.0, 10.0, 16.0, 1.0)]
    out = fill_gaps(traj, 4)
    assert [d.frame for d in out] == [10, 11, 12, 13]
    assert out[1].box == pytest.approx((2.0, 1.0, 10.0, 12.0), abs=1e-12)
    assert out[2].box == pytest.approx((4.0, 2.0, 10.0, 14.0), abs=1e-12)
    assert out[1].conf == 1.0 and out[2].conf == 1.0
    assert out[1].track_id == 1


def test_consecutive_frames_unchanged():
    traj = [det(1), det(2, x=3.0)]
    assert fill_gaps(traj, 4) == traj


def test_gap_equal_to_max_is_untouched():
    traj = [det(1), det(6, x=50.0)]  # size 4
    assert fill_gaps(traj, 4) == traj
    filled = fill_gaps(traj, 5)
    assert len(filled) == 6


def test_large_gap_untouched():
    traj = [det(1), det(100, x=990.0)]
    assert fill_gaps(traj, 42) == traj


def test_idempotent():
    rng = np.random.default_rng(31)
    frames = sorted(rng.choice(np.arange(1, 120), size=30, replace=False).tolist())
    traj = [det(int(f), x=float(rng.uniform(0, 500)), w=float(rng.uniform(1, 30))) for f in frames]
    once = fill_gaps(traj, 10)
    twice = fill_gaps(once, 10)
    assert twice == once


def test_count_increases_by_sum_of_filled_gaps():
    traj = [det(1), det(4, x=30.0), det(5, x=40.0), det(9, x=80.0), det(60, x=200.0)]
    out = fill_gaps(traj, 42)
    filled = (4 - 1 - 1) + (9 - 5 - 1)  # gaps of 2 and 3; the 50-gap stays
    assert len(out) == len(traj) + filled


def test_output_frames_strictly_increasing_and_boxes_positive():
    rng = np.random.default_rng(32)
    frames = sorted(rng.choice(np.arange(1, 300), size=40, replace=False).tolist())
    traj = [
        det(int(f), x=float(rng.uniform(-100, 500)), y=float(rng.uniform(-100, 500)),
            w=float(rng.uniform(0.5, 40)), h=float(rng.uniform(0.5, 40)))
        for f in frames
    ]
    out = fill_gaps(traj, 20)
    got = [d.frame for d in out]
    assert got == sorted(set(got))
    assert all(d.w > 0 and d.h > 0 for d in out)


def test_single_detection_and_empty():
    assert fill_gaps([det(5)], 10) == [det(5)]
    assert fill_gaps([], 10) == []


def test_rejects_duplicate_frames():
    with pytest.raises(ValueError, match=r"^\(1,3\) duplicated: track 1 has two detections in frame 3$"):
        fill_gaps([det(3), det(3, x=5.0)], 10)
    with pytest.raises(ValueError, match=r"^track 1 goes back in time: frame 3 follows frame 5$"):
        fill_gaps([det(5), det(3)], 10)


def test_rejects_nonpositive_max_gap():
    with pytest.raises(ValueError):
        fill_gaps([det(1)], 0)


@pytest.mark.parametrize("max_gap_size", [float("nan"), 5.0, True])
def test_rejects_a_max_gap_that_is_not_an_integer(max_gap_size):
    with pytest.raises(ValueError, match=rf"^max_gap_size must be an integer, got {max_gap_size}$"):
        fill_gaps([det(1), det(3)], max_gap_size)
    assert len(fill_gaps([det(1), det(3)], np.int64(5))) == 3


def _reference_fill(trajectory, max_gap_size):
    """One scalar formula per inserted detection."""
    out = []
    for left, right in zip(trajectory, trajectory[1:]):
        out.append(left)
        span = right.frame - left.frame
        if not 2 <= span <= max_gap_size:
            continue
        (lx, ly), (rx, ry) = left.center, right.center
        for k in range(1, span):
            a = k / span
            cx, cy = lx + (rx - lx) * a, ly + (ry - ly) * a
            w = left.w + (right.w - left.w) * a
            h = left.h + (right.h - left.h) * a
            out.append(Detection(left.frame + k, left.track_id, cx - w / 2.0, cy - h / 2.0, w, h, conf=1.0))
    return out + list(trajectory[-1:])


def test_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(33)
    for _ in range(40):
        frames = np.sort(rng.choice(np.arange(1, 400), size=int(rng.integers(1, 60)), replace=False)).tolist()
        scale = 10.0 ** rng.integers(-3, 4)
        traj = [
            det(f, x=float(rng.uniform(-500, 500) * scale), y=float(rng.uniform(-500, 500) * scale),
                w=float(rng.uniform(0.1, 90) * scale), h=float(rng.uniform(0.1, 90) * scale))
            for f in frames
        ]
        gap = int(rng.integers(1, 50))
        got, expected = fill_gaps(traj, gap), _reference_fill(traj, gap)
        assert [tuple(map(repr, (d.frame, d.track_id, d.x, d.y, d.w, d.h, d.conf))) for d in got] == [
            tuple(map(repr, (d.frame, d.track_id, float(d.x), float(d.y), float(d.w), float(d.h), float(d.conf))))
            for d in expected
        ]


def test_fills_each_track_id_run_of_a_table_separately():
    a = [det(1), det(4, x=30.0)]
    b = [det(2, tid=2), det(5, tid=2, x=9.0)]
    c = [det(1, tid=3), det(3, tid=3)]
    together = fill_gaps(a + b + c, 10)
    assert together == [*fill_gaps(a, 10), *fill_gaps(b, 10), *fill_gaps(c, 10)]
    assert len(together) == 6 + 2 + 2 + 1  # nothing is filled between runs
    with pytest.raises(ValueError, match=r"^\(2,5\) duplicated: track 2 has two detections in frame 5$"):
        fill_gaps(a + [det(5, tid=2), det(5, tid=2)], 10)


def test_a_gap_whose_rows_overflow_is_left_unfilled():
    # the centers 1e308 and -1e308 differ by more than a float holds: every row of
    # that gap would have x = -inf. The next gap, between equal boxes, is filled
    far = Detection(1, 1, 1e308, 0.0, 1e293, 5.0, 1.0)
    near = [Detection(f, 1, -1e308, 0.0, 1e293, 5.0, 1.0) for f in (4, 7)]
    out = fill_gaps([far, *near], 5)
    assert out == [far, *fill_gaps(near, 5)] and len(out) == 5
