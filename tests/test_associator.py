import numpy as np
import pytest

from trackstitch.associator import (
    STOP,
    SuccessorVar,
    build_domains,
    solve_with_stats,
    stitch,
    validate_assignment,
)
from trackstitch.mot_io import Detection, SequenceMeta
from trackstitch.scoring import ConstraintKind, ScoreConfig
from trackstitch.tracklets import make_tracklet

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=1000)


def tracklet(tid, first, last, x0=0.0, vx=1.0, y0=0.0):
    dets = [Detection(f, tid, x0 + vx * (f - first), y0, 10.0, 10.0, 1.0) for f in range(first, last + 1)]
    return make_tracklet(tid, dets)


def greedy_oracle(succ_vars):
    """Reference greedy: bind the globally best marginal, remove, renormalize.

    Independent of the solver's data structures: domains are rebuilt as plain
    dicts and marginals recomputed from the attached values at every step. The
    attached marginals are used verbatim until a domain first shrinks, which is
    the solver's documented semantics.
    """
    domains = {v.tracklet_id: dict(v.marginals) for v in succ_vars}
    shrunk = {v.tracklet_id: False for v in succ_vars}
    assignment = {}
    while len(assignment) < len(domains):
        best = None
        for vid, dom in domains.items():
            if vid in assignment:
                continue
            total = sum(dom.values()) if shrunk[vid] else 1.0
            for cand, weight in dom.items():
                m = weight / total
                key = (-m, vid, cand is STOP, cand if cand is not STOP else 0)
                if best is None or key < best[0]:
                    best = (key, vid, cand)
        _, vid, cand = best
        assignment[vid] = cand
        if cand is not STOP:
            for wid, dom in domains.items():
                if wid not in assignment and cand in dom:
                    del dom[cand]
                    shrunk[wid] = True
                    if not dom:
                        raise RuntimeError("greedy wiped a domain")
    return assignment


def random_instance(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    tracklets = []
    for tid in range(1, n + 1):
        first = int(rng.integers(1, 200))
        length = int(rng.integers(1, 20))
        tracklets.append(
            tracklet(tid, first, first + length, x0=float(rng.uniform(0, 1800)), vx=float(rng.uniform(-2, 2)))
        )
    return tracklets


class TestBuildDomains:
    def test_temporal_overlap_leaves_only_stop(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 5, 15)]
        for var in build_domains(tls, ScoreConfig(), META):
            assert var.domain == (STOP,)

    def test_enumerates_strictly_later_starters(self):
        tls = [tracklet(1, 1, 5), tracklet(2, 7, 9), tracklet(3, 8, 12)]
        domains = {v.tracklet_id: set(v.domain) for v in build_domains(tls, ScoreConfig(), META)}
        assert domains[1] == {2, 3, STOP}
        assert domains[2] == {STOP}  # 3 starts at 8 <= 9
        assert domains[3] == {STOP}

    def test_equal_end_start_frame_excluded(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 10, 20)]
        domains = {v.tracklet_id: set(v.domain) for v in build_domains(tls, ScoreConfig(), META)}
        assert domains[1] == {STOP}

    def test_marginals_are_normalized(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 22), tracklet(3, 25, 30)]
        for var in build_domains(tls, ScoreConfig(), META):
            assert sum(var.marginals.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0 < m <= 1 for m in var.marginals.values())

    def test_t0_filter_removes_candidates_but_never_stop(self):
        cfg = ScoreConfig()
        p = cfg.params[ConstraintKind.TIME_DISTANCE]
        p.t50 = 1e-9
        p.t0 = 2e-9  # any real gap scores 0: all candidates filtered
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 22)]
        domains = {v.tracklet_id: v.domain for v in build_domains(tls, cfg, META)}
        assert domains[1] == (STOP,)

    def test_duplicate_ids_rejected(self):
        tls = [tracklet(1, 1, 10), tracklet(1, 12, 22)]
        with pytest.raises(ValueError, match="duplicate"):
            build_domains(tls, ScoreConfig(), META)


class TestSolve:
    def test_single_tracklet_stops(self):
        tls = [tracklet(1, 1, 10)]
        assignment, _ = solve_with_stats(build_domains(tls, ScoreConfig(), META))
        assert assignment == {1: STOP}

    def test_two_tracklets_within_tend_link(self):
        # td = 2 scores 2^-4; STOP scores 2^-9: the candidate wins
        cfg = ScoreConfig()
        for kind in ConstraintKind:
            cfg.params[kind].enabled = kind is ConstraintKind.TIME_DISTANCE
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 22)]
        assignment, _ = solve_with_stats(build_domains(tls, cfg, META))
        assert assignment == {1: 2, 2: STOP}

    def test_two_tracklets_beyond_tend_stop(self):
        cfg = ScoreConfig()
        for kind in ConstraintKind:
            cfg.params[kind].enabled = kind is ConstraintKind.TIME_DISTANCE
        tls = [tracklet(1, 1, 10), tracklet(2, 16, 26)]  # td = 5 > tend = 3
        assignment, _ = solve_with_stats(build_domains(tls, cfg, META))
        assert assignment == {1: STOP, 2: STOP}

    def test_alldifferent_steers_weaker_predecessor_to_stop(self):
        # hand-built marginals: t1 wants t3 with 0.9, t2 with 0.2
        v1 = SuccessorVar(1, {3: 0.9 / 0.901, STOP: 0.001 / 0.901})
        v2 = SuccessorVar(2, {3: 0.2 / 0.201, STOP: 0.001 / 0.201})
        v3 = SuccessorVar(3, {STOP: 1.0})
        assignment, _ = solve_with_stats([v1, v2, v3])
        assert assignment == {1: 3, 2: STOP, 3: STOP}

    def test_engineered_backtrack_still_feasible(self):
        # X's best is v, but Y's only candidate is v: binding (X, v) wipes Y,
        # the search backtracks once, forbids the pair, and both variables
        # settle feasibly.
        x = SuccessorVar(1, {10: 0.9, STOP: 0.05})
        y = SuccessorVar(2, {10: 0.3})
        assignment, stats = solve_with_stats([x, y])
        assert assignment == {1: STOP, 2: 10}
        assert stats.backtracks == 1

    def test_infeasible_instance_raises(self):
        x = SuccessorVar(1, {10: 0.9})
        y = SuccessorVar(2, {10: 0.3})
        with pytest.raises(RuntimeError, match="no feasible"):
            solve_with_stats([x, y])

    def test_matches_greedy_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            tls = random_instance(rng)
            succ_vars = build_domains(tls, ScoreConfig(), META)
            got, stats = solve_with_stats(succ_vars)
            assert stats.backtracks == 0
            assert got == greedy_oracle(succ_vars)

    def test_constraints_hold_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            tls = random_instance(rng, n_max=30)
            assignment, _ = solve_with_stats(build_domains(tls, ScoreConfig(), META))
            assert len(assignment) == len(tls)
            validate_assignment(assignment, tls)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        tls = random_instance(rng, n_max=20)
        a, _ = solve_with_stats(build_domains(tls, ScoreConfig(), META))
        b, _ = solve_with_stats(build_domains(tls, ScoreConfig(), META))
        assert a == b


class TestStitch:
    def test_chain_walk(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20), tracklet(3, 1, 8, y0=50.0)]
        out = stitch({1: 2, 2: STOP, 3: STOP}, tls)
        spans = sorted((t.start.frame, t.end.frame) for t in out)
        assert spans == [(1, 8), (1, 20)]
        assert [t.id for t in out] == [1, 2]

    def test_all_stop_is_identity_modulo_ids(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20)]
        out = stitch({1: STOP, 2: STOP}, tls)
        assert [(t.start.frame, t.end.frame) for t in out] == [(1, 10), (12, 20)]

    def test_four_chain_has_monotone_frames(self):
        tls = [tracklet(i, 10 * i, 10 * i + 8) for i in range(1, 5)]
        out = stitch({1: 2, 2: 3, 3: 4, 4: STOP}, tls)
        assert len(out) == 1
        frames = [d.frame for d in out[0].detections]
        assert frames == sorted(frames)
        assert len(set(frames)) == len(frames)

    def test_preserves_detection_multiset(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20)]
        out = stitch({1: 2, 2: STOP}, tls)
        before = sorted((d.frame, d.x, d.y) for t in tls for d in t.detections)
        after = sorted((d.frame, d.x, d.y) for t in out for d in t.detections)
        assert before == after

    def test_relabels_detections_with_fresh_ids(self):
        tls = [tracklet(5, 1, 10), tracklet(9, 12, 20)]
        out = stitch({5: 9, 9: STOP}, tls)
        assert out[0].id == 1
        assert {d.track_id for d in out[0].detections} == {1}
