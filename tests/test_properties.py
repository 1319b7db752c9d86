"""Property tests: the pipeline on generated tracker-like input.

Scenarios come from ``generate`` + ``corrupt`` with crossings, identity swaps,
fragmentation and dropout, run with the cutter on and off, under the default
constraints and with all five enabled. Whatever the scenario, refining must
not raise, the association must satisfy its hard constraints, every input
detection must come out exactly once (plus the interpolated ones) in
(frame, id) order, and a rerun must give byte-identical output.

Metamorphic tests on crossing scenes check that refining commutes with a
shift of every frame and with scaling every box and the canvas by two, and
that neither refining nor scoring depends on the order of the input rows.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from trackstitch import (
    CorruptionConfig,
    DetectionTable,
    PipelineConfig,
    ScenarioConfig,
    ScenarioError,
    build_domains,
    clear_frame_matchings,
    corrupt,
    cut_tracklets,
    evaluate_sequence,
    generate,
    group_tracklets,
    refine_detections,
    solve_with_stats,
    validate_assignment,
    write_tracks,
)


@st.composite
def tracker_outputs(draw):
    n = draw(st.integers(2, 10))
    scene = ScenarioConfig(
        num_objects=n,
        num_frames=draw(st.integers(40, 150)),
        img_width=1280,
        img_height=720,
        crossings=draw(st.integers(0, n // 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    try:
        gt, meta = generate(scene)
    except ScenarioError:
        reject()
    gap_lo = draw(st.integers(0, 3))
    corruption = CorruptionConfig(
        fragment_prob=draw(st.floats(0.0, 1.0)),
        swap_prob=draw(st.floats(0.0, 1.0)),
        dropout=draw(st.floats(0.0, 0.1)),
        random_cuts_per_track=draw(st.integers(0, 2)),
        gap_frames=(gap_lo, gap_lo + draw(st.integers(0, 3))),
        seed=draw(st.integers(0, 2**16)),
    )
    detections, _ = corrupt(gt, corruption)
    return detections, meta


@settings(max_examples=80, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(seq=tracker_outputs(), cutter=st.booleans(), every_constraint=st.booleans())
def test_refine_invariants(seq, cutter, every_constraint):
    detections, meta = seq
    cfg = PipelineConfig(cutter_enabled=cutter)
    for params in cfg.scores.params.values():
        params.enabled |= every_constraint
    refined, summary = refine_detections(detections, meta, cfg)
    assert refined == sorted(refined, key=lambda d: (d.frame, d.track_id))

    tracklets = group_tracklets(detections, cfg.endpoint_window, cfg.endpoint_min_len)
    if cutter:
        tracklets = cut_tracklets(tracklets, cfg.cut_threshold, cfg.endpoint_window, cfg.endpoint_min_len)
    assignment, _ = solve_with_stats(build_domains(tracklets, cfg.scores, meta))
    assert sorted(assignment) == sorted(t.id for t in tracklets)
    validate_assignment(assignment, tracklets)

    key = lambda d: (d.frame, d.x, d.y, d.w, d.h, d.conf)
    assert Counter(map(key, detections)) <= Counter(map(key, refined))
    assert len(refined) == len(detections) + summary.detections_interpolated

    again, _ = refine_detections(detections, meta, cfg)
    assert write_tracks(again) == write_tracks(refined)


def crossing_scene(seed):
    """Ground truth and tracker output on a crossing scene: 30 objects, 600 frames, 10 crossings, swaps, fragments and dropout."""
    gt, meta = generate(ScenarioConfig(num_objects=30, num_frames=600, crossings=10, seed=seed))
    tracker, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, seed=seed))
    return gt, tracker, meta


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("seed", [1, 2])
def test_refine_moves_with_a_frame_shift(seed):
    _, tracker, meta = crossing_scene(seed)
    refined, summary = refine_detections(tracker, meta)
    frame, *rest = tracker.columns
    later = dataclasses.replace(meta, num_frames=meta.num_frames + 1000)
    shifted, shifted_summary = refine_detections(DetectionTable(frame + 1000, *rest), later)
    assert same_bits(shifted.frame, refined.frame + 1000)
    assert all(same_bits(a, b) for a, b in zip(shifted.columns[1:], refined.columns[1:]))
    assert dataclasses.replace(shifted_summary, wall_time_s=0) == dataclasses.replace(summary, wall_time_s=0)


@pytest.mark.parametrize("seed", [1, 2])
def test_refine_scales_with_boxes_and_canvas(seed):
    _, tracker, meta = crossing_scene(seed)
    refined, _ = refine_detections(tracker, meta)
    frame, track_id, x, y, w, h, conf = tracker.columns
    larger = dataclasses.replace(meta, img_width=2 * meta.img_width, img_height=2 * meta.img_height)
    scaled, _ = refine_detections(DetectionTable(frame, track_id, 2 * x, 2 * y, 2 * w, 2 * h, conf), larger)
    assert same_bits(scaled.frame, refined.frame) and same_bits(scaled.track_id, refined.track_id)
    assert all(same_bits(getattr(scaled, k), 2 * getattr(refined, k)) for k in "xywh")
    assert same_bits(scaled.conf, refined.conf)


@pytest.mark.parametrize("seed", [1, 2])
def test_refine_does_not_depend_on_row_order(seed):
    _, tracker, meta = crossing_scene(seed)
    refined, summary = refine_detections(tracker, meta)
    shuffled = tracker.take(np.random.default_rng(seed).permutation(len(tracker)))
    again, again_summary = refine_detections(shuffled, meta)
    assert write_tracks(again) == write_tracks(refined)
    assert dataclasses.replace(again_summary, wall_time_s=0) == dataclasses.replace(summary, wall_time_s=0)


@pytest.mark.parametrize("seed", [1, 2])
def test_scores_depend_only_on_the_set_of_rows(seed):
    # CLEAR and IDF1 are defined per frame over sets of boxes
    gt, tracker, _ = crossing_scene(seed)
    rng = np.random.default_rng(seed)

    def scores(g, p):
        # a list of reprs: a failure reports the first record that differs
        return [repr(evaluate_sequence(g, p)), *map(repr, clear_frame_matchings(g, p))]

    expected = scores(gt, tracker)
    for _ in range(3):
        assert scores(gt.take(rng.permutation(len(gt))), tracker.take(rng.permutation(len(tracker)))) == expected
