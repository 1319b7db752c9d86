"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every expected value here is either trivially exact, frozen from an
independent hand computation, or checked against an independently implemented
oracle inside the test.
"""

import time

import numpy as np
import pytest

from trackstitch.associator import (
    STOP,
    SuccessorVar,
    build_domains,
    solve_with_stats,
    validate_assignment,
)
from trackstitch.config import PipelineConfig
from trackstitch.evaluation import evaluate_sequence, idf1
from trackstitch.interpolate import fill_gaps
from trackstitch.mot_io import Detection, SequenceMeta, load_tracks
from trackstitch.pipeline import refine_detections
from trackstitch.scoring import ConstraintKind, ConstraintParams, ScoreConfig, gaussian_scores
from trackstitch.synth import CorruptionConfig, ScenarioConfig, corrupt, generate
from trackstitch.tracklets import cut_tracklets, group_tracklets, iou_pairs

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=1000)


def ok(name):
    print(f"[PASS] {name}")


def simple_run(tid, first, last, x0=0.0, vx=1.0, y0=0.0):
    return [Detection(f, tid, x0 + vx * (f - first), y0, 10.0, 10.0, 1.0) for f in range(first, last + 1)]


def test_score_calibration():
    """The score of t50 is 0.5 within 1e-9 for every constraint kind."""
    rng = np.random.default_rng(100)
    for kind in ConstraintKind:
        for _ in range(100):
            t50 = float(rng.uniform(1e-3, 10.0))
            params = ConstraintParams(True, t50, 3 * t50)
            assert abs(gaussian_scores(np.array([t50]), params).item() - 0.5) <= 1e-9, kind
    ok("score calibration: S(t50) = 0.5 within 1e-9, all five constraints x 100 random t50")


def test_score_shape():
    """Non-increasing on a 1000-point grid; values in {0} u [L, U]; exact 0 at t0."""
    rng = np.random.default_rng(101)
    lower, upper = 1e-6, 1 - 1e-6
    for trial in range(20):
        t50 = float(rng.uniform(0.05, 5.0))
        with_t0 = trial % 2 == 0
        params = ConstraintParams(True, t50, 3 * t50, t0=4 * t50 if with_t0 else None)
        grid = np.linspace(0.0, 6 * t50, 1000)
        values = gaussian_scores(grid, params, lower, upper).tolist()
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v == 0.0 or lower <= v <= upper for v in values)
        if with_t0:
            assert gaussian_scores(np.array([4 * t50]), params, lower, upper).tolist() == [0.0]
    ok("score shape: monotone on 1000-point grid, bounded in {0} u [L,U], exact 0 at t0")


def test_marginal_normalization():
    """1000 random candidate tables: sums within 1e-9, ordering invariant to rescaling."""
    rng = np.random.default_rng(102)
    rows = 0
    for _ in range(1000):
        domains = build_domains(random_tracklets(rng, 15), ScoreConfig(), META)
        bounds = domains.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            products, m = domains.products[lo:hi], domains.marginals[lo:hi]
            assert abs(m.sum() - 1.0) <= 1e-9
            assert all(0 < v <= 1 for v in m.tolist())
            # the marginals rescale the products by one factor, so they keep their order
            assert np.argsort(m, kind="stable").tolist() == np.argsort(products, kind="stable").tolist()
            rows += hi - lo > 1
    assert rows >= 1000
    ok(f"marginal normalization: {rows} random candidate rows sum to 1 within 1e-9, rescale-invariant order")


def random_tracklets(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    detections = []
    for tid in range(1, n + 1):
        first = int(rng.integers(1, 300))
        last = first + int(rng.integers(0, 15))
        detections += simple_run(
            tid, first, last,
            x0=float(rng.uniform(0, 1800)), vx=float(rng.uniform(-2, 2)),
            y0=float(rng.uniform(0, 1000)),
        )
    return group_tracklets(detections)


def test_hard_constraints():
    """1000 random instances (n <= 50): distinct successors, temporal order, complete."""
    rng = np.random.default_rng(103)
    for _ in range(1000):
        tracklets = random_tracklets(rng, 50)
        assignment, _ = solve_with_stats(build_domains(tracklets, ScoreConfig(), META))
        assert len(assignment) == len(tracklets)  # complete
        validate_assignment(assignment, tracklets)  # Eq-style checks: alldifferent + temporal
        non_stop = [v for v in assignment.values() if v is not STOP]
        assert len(non_stop) == len(set(non_stop))
    ok("hard constraints: 1000 random instances solved, allDifferent + strict temporal order hold")


def greedy_oracle(succ_vars):
    # independent greedy: fresh normalization over survivors at every step,
    # attached marginals taken verbatim until a domain first shrinks
    domains = {v.tracklet_id: dict(v.marginals) for v in succ_vars}
    shrunk = dict.fromkeys(domains, False)
    assignment = {}
    while len(assignment) < len(domains):
        best = None
        for vid, dom in domains.items():
            if vid in assignment:
                continue
            total = sum(dom.values()) if shrunk[vid] else 1.0
            for cand, weight in dom.items():
                key = (-(weight / total), vid, cand is STOP, cand if cand is not STOP else 0)
                if best is None or key < best[0]:
                    best = (key, vid, cand)
        _, vid, cand = best
        assignment[vid] = cand
        if cand is not STOP:
            for wid, dom in domains.items():
                if wid not in assignment and cand in dom:
                    del dom[cand]
                    shrunk[wid] = True
                    assert dom, "greedy wiped a domain"
    return assignment


def test_oracle_equivalence():
    """Solve matches an independent greedy on 200 random instances; a domain without STOP is refused."""
    rng = np.random.default_rng(104)
    for _ in range(200):
        succ_vars = build_domains(random_tracklets(rng, 8), ScoreConfig(), META)
        got, stats = solve_with_stats(succ_vars)
        assert stats.backtracks == 0  # STOP keeps greedy binding wipe-free
        assert got == greedy_oracle(succ_vars)
    # X prefers v but Y's only candidate is v: binding (X, v) would wipe Y out
    x = SuccessorVar(1, {10: 0.9, STOP: 0.05})
    y = SuccessorVar(2, {10: 0.3})
    with pytest.raises(ValueError, match="^variable 2 has no STOP entry$"):
        solve_with_stats([x, y])
    ok("oracle equivalence: greedy oracle matched on 200 instances; a domain without STOP is refused")


def test_end_to_end_repair():
    """20 objects, 600 frames, 3 fragments each: >= 95% rejoined, IDF1 up, < 10 s."""
    started = time.perf_counter()
    gt, meta = generate(ScenarioConfig(num_objects=20, num_frames=600, fps=30.0, seed=42))
    corrupted, log = corrupt(gt, CorruptionConfig(random_cuts_per_track=2, gap_frames=(1, 2), seed=7))
    assert len(log.fragments) == 60 and len(log.cuts) == 40
    assert not log.drops

    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    refined, summary = refine_detections(corrupted, meta, cfg)

    owner = {(d.frame, round(d.x, 6), round(d.y, 6)): d.track_id for d in refined}
    by_id = {}
    for d in corrupted:
        by_id.setdefault(d.track_id, []).append(d)
    rejoined = 0
    for cut in log.cuts:
        left_last = max(by_id[cut.left_id], key=lambda d: d.frame)
        right_first = min(by_id[cut.right_id], key=lambda d: d.frame)
        a = owner.get((left_last.frame, round(left_last.x, 6), round(left_last.y, 6)))
        b = owner.get((right_first.frame, round(right_first.x, 6), round(right_first.y, 6)))
        rejoined += a is not None and a == b
    elapsed = time.perf_counter() - started

    assert rejoined >= 0.95 * len(log.cuts), f"only {rejoined}/{len(log.cuts)} rejoined"
    idf1_before = idf1(gt, corrupted)
    idf1_after = idf1(gt, refined)
    assert idf1_after > idf1_before
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f} s"
    ok(
        f"end-to-end repair: {rejoined}/{len(log.cuts)} pairs rejoined, "
        f"IDF1 {idf1_before:.3f} -> {idf1_after:.3f}, {elapsed:.2f} s"
    )


def test_cutter_correctness():
    """Crossing with IoU >= 0.5 on 3 consecutive frames: one cut each, at the first."""
    # |xA - xB| = |2f - 20|: IoU >= 0.5 iff |dx| <= 10/3, i.e. frames 9, 10, 11
    a = [Detection(f, 1, float(f), 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
    b = [Detection(f, 2, 20.0 - f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
    hot = [f for f in range(1, 21) if float(iou_pairs(a[f - 1].box, b[f - 1].box)) >= 0.5]
    assert hot == [9, 10, 11]

    fragments = cut_tracklets(group_tracklets(a + b), 0.5)
    spans = sorted(zip(fragments.ends.start_frame.tolist(), fragments.ends.end_frame.tolist()))
    assert spans == [(1, 8), (1, 8), (9, 20), (9, 20)]  # one cut per tracklet, at frame 9

    key = lambda d: (d.frame, d.x, d.y, d.w, d.h, d.conf)
    assert sorted(map(key, a + b)) == sorted(key(d) for t in fragments for d in t.detections)
    ok("cutter: single rising-edge cut at frame 9 per tracklet, detection multiset preserved")


def test_interpolation():
    """Gaps {3, 41, 42, 60} with maxGapSize 42: 3 and 41 filled exactly, others untouched."""
    # segment edges chosen so interpolated boxes are exact integers
    traj = [
        Detection(10, 1, 0.0, 0.0, 10.0, 10.0, 1.0),
        Detection(14, 1, 6.0, 3.0, 10.0, 16.0, 1.0),  # gap of 3
        Detection(56, 1, 90.0, 45.0, 10.0, 16.0, 1.0),  # gap of 41
        Detection(99, 1, 133.0, 66.5, 10.0, 16.0, 1.0),  # gap of 42: untouched
        Detection(160, 1, 194.0, 97.0, 10.0, 16.0, 1.0),  # gap of 60: untouched
    ]
    out = fill_gaps(traj, 42)
    frames = [d.frame for d in out]
    assert frames == list(range(10, 57)) + [99, 160]

    by_frame = {d.frame: d for d in out}
    # gap of 3: centers (5,5) -> (11,11) in 4 frames, heights 10 -> 16,
    # so per frame the center moves (1.5, 1.5) and the height grows 1.5
    assert by_frame[11].box == pytest.approx((1.5, 0.75, 10.0, 11.5), abs=1e-12)
    assert by_frame[12].box == pytest.approx((3.0, 1.5, 10.0, 13.0), abs=1e-12)
    assert by_frame[13].box == pytest.approx((4.5, 2.25, 10.0, 14.5), abs=1e-12)
    # gap of 41: x advances 2 per frame from 6 at frame 14
    assert by_frame[15].box == pytest.approx((8.0, 4.0, 10.0, 16.0), abs=1e-9)
    assert by_frame[35].box == pytest.approx((48.0, 24.0, 10.0, 16.0), abs=1e-9)
    assert by_frame[55].box == pytest.approx((88.0, 44.0, 10.0, 16.0), abs=1e-9)
    assert all(d.conf == 1.0 for d in out if d.frame not in (10, 14, 56, 99, 160))

    assert fill_gaps(out, 42) == out  # idempotent

    # MOTA strictly increases once dropout holes are interpolated
    gt, _ = generate(ScenarioConfig(num_objects=10, num_frames=200, seed=55))
    corrupted, log = corrupt(gt, CorruptionConfig(dropout=0.08, seed=56))
    assert log.drops
    trajectories = {}
    for d in corrupted:
        trajectories.setdefault(d.track_id, []).append(d)
    filled = [d for dets in trajectories.values() for d in fill_gaps(sorted(dets, key=lambda d: d.frame), 42)]
    before = evaluate_sequence(gt, corrupted).mota
    after = evaluate_sequence(gt, filled).mota
    assert after > before
    ok(f"interpolation: gaps 3/41 filled exactly, 42/60 untouched, MOTA {before:.3f} -> {after:.3f}")


def test_metric_sanity():
    """Perfect scores on identity; frozen one-switch MOTA and half-split IDF1."""
    gt = [Detection(f, 1, 10.0 * f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 11)]
    assert evaluate_sequence(gt, gt).mota == 1.0
    assert idf1(gt, gt) == 1.0
    switched = [Detection(d.frame, 1 if d.frame <= 5 else 2, d.x, d.y, d.w, d.h, d.conf) for d in gt]
    assert abs(evaluate_sequence(gt, switched).mota - 0.9) <= 1e-12
    assert abs(idf1(gt, switched) - 0.5) <= 1e-12
    ok("metric sanity: identity scores 1.0; one-switch MOTA 0.9 and half-split IDF1 0.5 exact")


def test_determinism(tmp_path):
    """Identical inputs, config and seeds give byte-identical output files."""
    from trackstitch.cli import main

    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "scene.num_objects = 8\nscene.num_frames = 200\nscene.seed = 12\n"
        "corrupt.random_cuts = 2\ncorrupt.gap_min = 1\ncorrupt.gap_max = 2\ncorrupt.seed = 13\n"
    )
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["synth", str(scenario), "--out-dir", str(d)]) == 0
    for name in ("gt.txt", "tracker.txt", "seqinfo.ini", "corruption_log.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    outs = [tmp_path / "refined1.txt", tmp_path / "refined2.txt"]
    for out in outs:
        code = main(
            ["refine", str(dirs[0] / "tracker.txt"), str(out), "--seqinfo", str(dirs[0] / "seqinfo.ini")]
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert load_tracks(outs[0])  # non-trivial output
    ok("determinism: synth and refine outputs byte-identical across reruns")


def test_crossing_and_swap():
    """30 objects, 600 frames, 10 crossings, swaps, fragments, dropout: refine completes intact."""
    from collections import Counter

    cfg = PipelineConfig()
    key = lambda d: (d.frame, d.x, d.y, d.w, d.h, d.conf)
    for seed in (1, 2):  # both raised "distance must be nonnegative" before IoU was clamped
        gt, meta = generate(ScenarioConfig(num_objects=30, num_frames=600, crossings=10, seed=seed))
        corrupted, log = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, seed=seed))
        assert log.swaps and log.fragments and log.drops
        refined, summary = refine_detections(corrupted, meta, cfg)

        tracklets = cut_tracklets(
            group_tracklets(corrupted, cfg.endpoint_window, cfg.endpoint_min_len),
            cfg.cut_threshold, cfg.endpoint_window, cfg.endpoint_min_len,
        )
        assignment, _ = solve_with_stats(build_domains(tracklets, cfg.scores, meta))
        assert sorted(assignment) == sorted(t.id for t in tracklets)
        validate_assignment(assignment, tracklets)

        assert Counter(map(key, corrupted)) <= Counter(map(key, refined))
        assert len(refined) == len(corrupted) + summary.detections_interpolated
    ok("crossing and swap: seeds 1 and 2 refine without error, constraints hold, detections kept")
