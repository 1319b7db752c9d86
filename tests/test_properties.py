"""Property tests: the default pipeline on generated tracker-like input.

Scenarios come from ``generate`` + ``corrupt`` with crossings, identity swaps,
fragmentation and dropout, run with the cutter on and off. Whatever the
scenario, refining must not raise, the association must satisfy its hard
constraints, every input detection must come out exactly once (plus the
interpolated ones), and a rerun must give byte-identical output.
"""

from collections import Counter

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from trackstitch import (
    CorruptionConfig,
    PipelineConfig,
    ScenarioConfig,
    ScenarioError,
    build_domains,
    corrupt,
    cut_tracklets,
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(seq=tracker_outputs(), cutter=st.booleans())
def test_refine_invariants(seq, cutter):
    detections, meta = seq
    cfg = PipelineConfig(cutter_enabled=cutter)
    refined, summary = refine_detections(detections, meta, cfg)

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
