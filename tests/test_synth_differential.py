"""The columnar synth against per-detection reference copies of itself.

``reference_generate``, ``reference_crossings`` and ``reference_corrupt``
build one ``Detection`` at a time, score one box pair at a time and walk each
trajectory in Python. ``generate``, the crossings (the peaks of
:func:`~trackstitch.tracklets.overlap_runs`) and ``corrupt`` must give the
same rows and the same log records, draw for draw, on generated scenarios and
on small hand-built ones with plateaus, missing frames and rows out of frame
order.
"""

import dataclasses
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from trackstitch.mot_io import Detection
from trackstitch.synth import (
    CorruptionConfig,
    CorruptionLog,
    CutRecord,
    DropRecord,
    FragmentRecord,
    ScenarioConfig,
    ScenarioError,
    SwapRecord,
    _plan_paths,
    corrupt,
    generate,
)
from trackstitch.tracklets import group_tracklets, iou_pairs, overlap_runs


def reference_generate(cfg):
    """The ground truth of ``generate``, one Detection per object and frame from the same path plans."""
    W, H = cfg.img_width, cfg.img_height
    detections = []
    for obj, (w, h, cx, cy, disp) in enumerate(_plan_paths(cfg, np.random.default_rng(cfg.seed))):
        for t in range(cfg.num_frames):
            x = float(np.clip(cx + disp[t, 0], 1 + w / 2, W - 1 - w / 2))
            y = float(np.clip(cy + disp[t, 1], 1 + h / 2, H - 1 - h / 2))
            detections.append(Detection(t + 1, obj + 1, x - w / 2, y - h / 2, w, h, conf=1.0))
    return detections


def reference_crossings(trajectories, iou_threshold):
    """The crossing events of a dict of id -> frame-sorted detections, one box pair and one run at a time.

    A run of b's detections hitting a's box in their frame ends at a miss or where b skips a frame.
    """
    events = []
    ids = sorted(trajectories)
    for i, a in enumerate(ids):
        frames_a = {d.frame: d for d in trajectories[a]}
        for b in ids[i + 1 :]:
            run = []
            for d in trajectories[b]:
                da = frames_a.get(d.frame)
                value = float(iou_pairs(da.box, d.box)) if da else 0.0
                if run and (value < iou_threshold or d.frame != run[-1][1] + 1):
                    events.append((a, b, max(run, key=lambda e: (e[0], -e[1]))[1]))
                    run = []
                if value >= iou_threshold:
                    run.append((value, d.frame))
            if run:
                events.append((a, b, max(run, key=lambda e: (e[0], -e[1]))[1]))
    events.sort(key=lambda e: (e[2], e[0], e[1]))
    return events


def reference_corrupt(gt, cfg):
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    log = CorruptionLog()

    containers = {}
    for det in sorted(gt, key=attrgetter("track_id", "frame")):
        containers.setdefault(det.track_id, []).append(det)

    events = reference_crossings(containers, cfg.crossing_iou)

    for a, b, frame in events:
        if cfg.swap_prob > 0 and rng.random() < cfg.swap_prob:
            head_a = [d for d in containers[a] if d.frame < frame]
            tail_a = [d for d in containers[a] if d.frame >= frame]
            head_b = [d for d in containers[b] if d.frame < frame]
            tail_b = [d for d in containers[b] if d.frame >= frame]
            containers[a] = head_a + tail_b
            containers[b] = head_b + tail_a
            log.swaps.append(SwapRecord(a, b, frame))

    cut_points = {cid: [] for cid in containers}
    for a, b, frame in events:
        for cid in (a, b):
            if cfg.fragment_prob > 0 and rng.random() < cfg.fragment_prob:
                gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
                cut_points[cid].append((frame, gap))
    for cid in sorted(containers):
        dets = containers[cid]
        if cfg.random_cuts_per_track < 1 or len(dets) < 3:
            continue
        margin = max(5, cfg.gap_frames[1] + 2)
        lo, hi = dets[0].frame + margin, dets[-1].frame - margin
        if hi <= lo:
            continue
        chosen = []
        for _ in range(cfg.random_cuts_per_track):
            for _ in range(100):
                f = int(rng.integers(lo, hi + 1))
                if all(abs(f - other) >= margin for other in chosen):
                    chosen.append(f)
                    break
        for f in sorted(chosen):
            gap = int(rng.integers(cfg.gap_frames[0], cfg.gap_frames[1] + 1))
            cut_points[cid].append((f, gap))

    out = []
    next_id = 1
    for cid in sorted(containers):
        dets = containers[cid]
        pieces = [[]]
        cut_meta = []
        by_cut_frame = {}
        for f, gap in cut_points[cid]:
            by_cut_frame[f] = max(gap, by_cut_frame.get(f, 0))
        it = iter(sorted(by_cut_frame.items()))
        cut = next(it, None)
        for det in dets:
            while cut is not None and det.frame >= cut[0]:
                pieces.append([])
                cut_meta.append(cut)
                cut = next(it, None)
            if cut_meta and cut_meta[-1][0] <= det.frame < cut_meta[-1][0] + cut_meta[-1][1]:
                continue
            pieces[-1].append(det)

        kept_pieces = []
        for piece in pieces:
            kept = []
            for det in piece:
                if cfg.dropout > 0 and rng.random() < cfg.dropout:
                    log.drops.append(DropRecord(cid, det.frame))
                else:
                    kept.append(det)
            kept_pieces.append(kept or None)

        piece_ids = []
        for piece in kept_pieces:
            if piece is None:
                piece_ids.append(None)
                continue
            relabeled = [dataclasses.replace(d, track_id=next_id) for d in piece]
            out.extend(relabeled)
            log.fragments.append(FragmentRecord(next_id, cid, relabeled[0].frame, relabeled[-1].frame))
            piece_ids.append(next_id)
            next_id += 1

        for k, boundary in enumerate(cut_meta):
            left, right = piece_ids[k], piece_ids[k + 1]
            if left is not None and right is not None:
                log.cuts.append(CutRecord(cid, boundary[0], boundary[1], left, right))

    out.sort(key=attrgetter("frame", "track_id"))
    return out, log


def assert_same_corruption(gt, cfg):
    out, log = corrupt(gt, cfg)
    expected, expected_log = reference_corrupt(list(gt), cfg)
    assert out == expected
    assert log.cuts == expected_log.cuts
    assert log.swaps == expected_log.swaps
    assert log.drops == expected_log.drops
    assert log.fragments == expected_log.fragments
    return log


def box_track(track_id, frames, xs, w=10.0):
    return [Detection(f, track_id, float(x), 0.0, w, 10.0, 1.0) for f, x in zip(frames, xs)]


def crossings(detections, iou_threshold):
    """The peaks of the overlap runs of the tracks of ``detections``, as ``corrupt`` logs them: (a, b, frame) by frame, then ids."""
    tracks = group_tracklets(detections)
    i, j, _, peak = overlap_runs(tracks, iou_threshold)
    ids, frames = tracks.rows.track_id, tracks.rows.frame
    events = zip(ids[i[peak]].tolist(), ids[j[peak]].tolist(), frames[i[peak]].tolist())
    return sorted(events, key=lambda e: (e[2], e[0], e[1]))


def swaps(detections, iou_threshold):
    """The (a, b, frame) of every crossing that ``corrupt`` swaps at ``swap_prob=1``: all of them."""
    _, log = corrupt(detections, CorruptionConfig(swap_prob=1.0, crossing_iou=iou_threshold))
    return [(s.source_a, s.source_b, s.frame) for s in log.swaps]


# --- generate ---------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(num_objects=1, num_frames=1, seed=1),
        ScenarioConfig(num_objects=6, num_frames=200, crossings=3, seed=4),
        ScenarioConfig(num_objects=5, num_frames=120, turn_rate=0.03, seed=8),
        # paths too fast for the canvas fall back to a clamped slowest path
        ScenarioConfig(num_objects=3, num_frames=300, img_width=320, img_height=240, min_speed=6, max_speed=9, seed=2),
    ],
)
def test_generate_matches_the_per_detection_loop(cfg):
    gt, meta = generate(cfg)
    assert gt == reference_generate(cfg)
    assert meta.num_frames == cfg.num_frames and len(gt) == cfg.num_objects * cfg.num_frames


# --- crossings --------------------------------------------------------------


def test_plateau_peak_is_the_earliest_frame_of_the_run():
    a = box_track(1, range(1, 11), [20, 15, 10, 5, 5, 5, 5, 10, 15, 20])
    b = box_track(2, range(1, 11), [5] * 10)
    assert crossings(a + b, 0.3) == reference_crossings({1: a, 2: b}, 0.3) == swaps(a + b, 0.3) == [(1, 2, 4)]


def test_a_missing_frame_splits_a_run():
    a = box_track(1, [1, 2, 3, 5, 6], [0, 1, 0, 0, 1])
    b = box_track(2, range(1, 7), [0] * 6)
    expected = [(1, 2, 1), (1, 2, 5)]
    assert crossings(a + b, 0.5) == reference_crossings({1: a, 2: b}, 0.5) == swaps(a + b, 0.5) == expected


def test_a_frame_gap_of_the_higher_id_splits_a_run():
    # b skips frame 4 while a stays on it: frames 1-3 and 5-6 are two runs
    a = box_track(1, range(1, 7), [0] * 6)
    b = box_track(2, [1, 2, 3, 5, 6], [0, 1, 0, 0, 1])
    expected = [(1, 2, 1), (1, 2, 5)]
    assert crossings(a + b, 0.5) == reference_crossings({1: a, 2: b}, 0.5) == swaps(a + b, 0.5) == expected


def test_corrupt_rejects_a_repeated_id_and_frame():
    a = box_track(1, [1, 2, 2, 3], [0, 0, 50, 0])
    b = box_track(2, [1, 2, 3], [0, 0, 0])
    with pytest.raises(ValueError, match=r"^\(1,2\) duplicated: track 1 has two detections in frame 2$"):
        corrupt(a + b, CorruptionConfig())


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_corrupt_rejects_a_crossing_iou_outside_the_unit_interval(threshold):
    a = box_track(1, [1], [0]) + box_track(2, [1], [0])
    with pytest.raises(ValueError, match=r"^crossing_iou must lie in \(0, 1\], got "):
        corrupt(a, CorruptionConfig(crossing_iou=threshold))


@st.composite
def drawn_tracks(draw):
    """Detections of up to five tracks, each holding one row per frame, in drawn order."""
    ids = draw(st.lists(st.integers(1, 9), max_size=5, unique=True))
    detections = []
    for tid in ids:
        rows = draw(
            st.lists(
                st.tuples(st.integers(1, 10), st.sampled_from([0.0, 2.0, 4.0, 5.0, 10.0, 0.1]), st.sampled_from([10.0, 8.0])),
                max_size=10,
                unique_by=lambda r: r[0],
            )
        )
        detections += [Detection(f, tid, x, 0.0, w, 10.0, 1.0) for f, x, w in rows]
    return draw(st.permutations(detections))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(detections=drawn_tracks(), threshold=st.one_of(st.sampled_from([0.3, 0.5, 0.6, 1.0]), st.floats(0.01, 1.0)))
def test_crossings_match_the_pairwise_loop(detections, threshold):
    trajectories = {}
    for d in sorted(detections, key=lambda d: (d.track_id, d.frame)):
        trajectories.setdefault(d.track_id, []).append(d)
    assert crossings(detections, threshold) == reference_crossings(trajectories, threshold)


# --- corrupt ----------------------------------------------------------------


CROSSING_GT = ScenarioConfig(num_objects=8, num_frames=150, crossings=3, seed=1)


@pytest.mark.parametrize(
    "corruption",
    [
        CorruptionConfig(seed=1),
        CorruptionConfig(swap_prob=1.0, seed=2),
        CorruptionConfig(fragment_prob=1.0, gap_frames=(1, 3), seed=3),
        CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.05, gap_frames=(0, 2), seed=4),
        CorruptionConfig(dropout=0.05, seed=5),
        CorruptionConfig(dropout=1.0, random_cuts_per_track=2, seed=6),
        CorruptionConfig(random_cuts_per_track=3, gap_frames=(2, 5), seed=7),
        CorruptionConfig(swap_prob=1.0, fragment_prob=1.0, random_cuts_per_track=2, gap_frames=(1, 3), seed=8),
        CorruptionConfig(fragment_prob=1.0, crossing_iou=0.05, gap_frames=(0, 3), seed=9),
    ],
    ids=lambda c: f"seed{c.seed}",
)
def test_corrupt_matches_the_per_detection_reference(corruption):
    gt, _ = generate(CROSSING_GT)
    assert_same_corruption(gt, corruption)


def test_coinciding_cuts_collapse_to_the_widest_gap():
    # three tracks coincide at frame 10, so each takes two cuts there
    frames = range(1, 21)
    gt = box_track(1, frames, [2.0 * f for f in frames]) + box_track(2, frames, [40.0 - 2.0 * f for f in frames])
    gt += box_track(3, frames, [20.0] * 20)
    cfg = CorruptionConfig(fragment_prob=1.0, gap_frames=(0, 4), seed=12)
    log = assert_same_corruption(gt, cfg)
    assert [(c.source, c.frame) for c in log.cuts] == [(1, 10), (2, 10), (3, 10)]
    assert len(crossings(gt, cfg.crossing_iou)) == 3


def test_corrupt_of_nothing_is_an_empty_table():
    out, log = corrupt([], CorruptionConfig(dropout=0.5, random_cuts_per_track=2, seed=1))
    assert len(out) == 0 and log == CorruptionLog()


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 8))
    scene = ScenarioConfig(
        num_objects=n,
        num_frames=draw(st.integers(10, 160)),
        img_width=1280,
        img_height=720,
        crossings=draw(st.integers(0, n // 2)),
        turn_rate=draw(st.sampled_from([0.0, 0.02])),
        seed=draw(st.integers(0, 2**16)),
    )
    try:
        gt, _ = generate(scene)
    except ScenarioError:
        reject()
    return gt


@st.composite
def hand_built(draw):
    """Up to four tracks, one row per (frame, id), on a few boxes of one row, so crossings, plateaus and frame gaps are common."""
    rows = draw(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 4), st.sampled_from([0.0, 3.0, 5.0, 10.0, 40.0])),
            max_size=60,
            unique_by=lambda r: r[:2],
        )
    )
    return [Detection(f, tid, x, 0.0, 10.0, 10.0, 1.0) for f, tid, x in rows]


@st.composite
def corruptions(draw):
    gap_lo = draw(st.integers(0, 3))
    probability = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0))
    return CorruptionConfig(
        fragment_prob=draw(probability),
        swap_prob=draw(probability),
        dropout=draw(probability),
        random_cuts_per_track=draw(st.integers(0, 3)),
        gap_frames=(gap_lo, gap_lo + draw(st.integers(0, 3))),
        crossing_iou=draw(st.one_of(st.sampled_from([0.3, 0.5, 1.0]), st.floats(0.01, 1.0))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(gt=st.one_of(scenarios(), hand_built()), cfg=corruptions())
def test_corrupt_matches_the_reference_on_drawn_inputs(gt, cfg):
    assert_same_corruption(gt, cfg)
