import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from trackstitch.associator import (
    STOP,
    Domains,
    SuccessorVar,
    build_domains,
    dump_candidates,
    solve_with_stats,
    stitch,
    validate_assignment,
)
from trackstitch.mot_io import Detection, SequenceMeta
from trackstitch.scoring import (
    ConstraintKind,
    PairScores,
    ScoreConfig,
    gaussian_score,
    marginals,
)
from trackstitch.tracklets import iou, make_tracklet

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

    def test_removing_the_dominant_candidate_keeps_a_positive_total(self):
        # 3 loses 11 (a re-sum to 1.0 + 1e-20 == 1.0), then 10, which held
        # all of that total: subtracting it would leave 0 for STOP's 1e-20
        v1 = SuccessorVar(1, {11: 1.0})
        v2 = SuccessorVar(2, {10: 1.0})
        v3 = SuccessorVar(3, marginals({10: 1.0, 11: 0.5, STOP: 1e-20}))
        assignment, stats = solve_with_stats([v1, v2, v3])
        assert assignment == {1: 11, 2: 10, 3: STOP}
        assert stats.backtracks == 0

    @pytest.mark.parametrize(
        "bad", [{10: 0.0, STOP: 0.0}, {10: math.nan, STOP: 1.0}, {10: math.inf, STOP: 1.0}, {10: -0.5, STOP: 1.5}]
    )
    def test_rejects_marginals_that_are_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="^variable 2 has a marginal that is not finite and positive$"):
            solve_with_stats([SuccessorVar(1, {10: 1.0}), SuccessorVar(2, bad)])

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


def copying_search(succ_vars):
    """Reference depth-first search that copies the domains at every node.

    It binds the pair with the highest marginal (ties to the smaller variable
    id, then the within-variable order, STOP last), removes a bound non-STOP
    value from the other unbound domains, and on a wiped-out domain retracts
    the latest pair and forbids it. Returns the assignment, or None when there
    is none, and the number of retracted pairs.
    """
    backtracks = 0

    def search(domains, shrunk, assignment):
        nonlocal backtracks
        domains = {vid: dict(dom) for vid, dom in domains.items()}
        shrunk = dict(shrunk)
        while True:
            unbound = [vid for vid in domains if vid not in assignment]
            if any(not domains[vid] for vid in unbound):
                return None
            if not unbound:
                return assignment
            best = None
            for vid in unbound:
                total = sum(domains[vid].values()) if shrunk[vid] else 1.0
                for cand, weight in domains[vid].items():
                    key = (-(weight / total), vid, cand is STOP, cand if cand is not STOP else 0)
                    if best is None or key < best[0]:
                        best = (key, vid, cand)
            _, vid, cand = best
            child = {wid: dict(dom) for wid, dom in domains.items()}
            child_shrunk = dict(shrunk)
            if cand is not STOP:
                for wid in unbound:
                    if wid != vid and cand in child[wid]:
                        del child[wid][cand]
                        child_shrunk[wid] = True
            found = search(child, child_shrunk, {**assignment, vid: cand})
            if found is not None:
                return found
            backtracks += 1
            del domains[vid][cand]
            shrunk[vid] = True

    domains = {v.tracklet_id: dict(v.marginals) for v in succ_vars}
    return search(domains, dict.fromkeys(domains, False), {}), backtracks


def hand_built_instance(rng):
    # marginals are multiples of 1/64, so every total the solver keeps is exact;
    # candidates share a small pool, and about half the domains lack STOP
    n = int(rng.integers(2, 7))
    pool = np.arange(100, 101 + n)
    succ_vars = []
    for vid in range(1, n + 1):
        cands = rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)
        dom = {int(c): int(rng.integers(1, 65)) / 64 for c in cands}
        if rng.random() < 0.5:
            dom[STOP] = int(rng.integers(1, 65)) / 64
        succ_vars.append(SuccessorVar(vid, dom))
    return succ_vars


def dominant_instance(rng):
    # marginals normalized from weights that span 1e-20 to 1, one of them
    # dominant per domain, so the solver's totals are inexact; a small shared
    # pool makes a domain often lose its dominant candidate after another one.
    # Every domain holds STOP, so every instance is solvable
    n = int(rng.integers(2, 9))
    pool = np.arange(100, 100 + max(2, n // 3))
    succ_vars = []
    for vid in range(1, n + 1):
        cands = rng.choice(pool, size=int(rng.integers(1, min(len(pool), 3) + 1)), replace=False).tolist()
        weights = {c: 10.0 ** rng.uniform(-20, 0) for c in [*cands, STOP]}
        weights[cands[int(rng.integers(len(cands)))] if rng.random() < 0.9 else STOP] = 1.0
        succ_vars.append(SuccessorVar(vid, marginals(weights)))
    return succ_vars


class TestSearch:
    def test_dominant_candidates_never_raise(self):
        rng = np.random.default_rng(37)
        for _ in range(3000):
            succ_vars = dominant_instance(rng)
            assignment, _ = solve_with_stats(succ_vars)
            assert sorted(assignment) == [v.tracklet_id for v in succ_vars]
            linked = [c for c in assignment.values() if c is not STOP]
            assert len(set(linked)) == len(linked)
            assert all(assignment[v.tracklet_id] in v.marginals for v in succ_vars)

    def test_backtracking_matches_copying_reference(self):
        rng = np.random.default_rng(31)
        multi_backtrack = infeasible = 0
        for _ in range(2000):
            succ_vars = hand_built_instance(rng)
            expected, backtracks = copying_search(succ_vars)
            if expected is None:
                infeasible += 1
                with pytest.raises(RuntimeError, match="no feasible"):
                    solve_with_stats(succ_vars)
                continue
            got, stats = solve_with_stats(succ_vars)
            assert got == expected
            assert stats.backtracks == backtracks
            multi_backtrack += backtracks > 1
        assert multi_backtrack >= 50 and infeasible >= 50

    def test_leaves_no_global_state(self, monkeypatch):
        # a chain of 3000 variables, solved under a recursion limit of 100
        # that the solver may neither need nor change
        import sys

        n = 3000
        succ_vars = [SuccessorVar(i, {i + 1: 0.75, STOP: 0.25}) for i in range(1, n)]
        succ_vars.append(SuccessorVar(n, {STOP: 1.0}))
        set_limit = sys.setrecursionlimit
        old_limit = sys.getrecursionlimit()

        def refuse(limit):
            raise AssertionError(f"solver changed the recursion limit to {limit}")

        set_limit(100)
        try:
            monkeypatch.setattr(sys, "setrecursionlimit", refuse)
            assignment, stats = solve_with_stats(succ_vars)
            assert sys.getrecursionlimit() == 100
        finally:
            set_limit(old_limit)
        assert assignment == {**{i: i + 1 for i in range(1, n)}, n: STOP}
        assert (stats.nodes, stats.backtracks) == (n + 1, 0)


def scalar_distance(kind, t, s, meta):
    """Each constraint's distance written pair by pair on plain floats, as the scoring model defines it."""
    gap = s.start.frame - t.end.frame
    if kind is ConstraintKind.TIME_DISTANCE:
        return gap * (30.0 / meta.fps)
    u, v = t.end.velocity, s.start.velocity
    if kind is ConstraintKind.ANGLE_DIFFERENCE:
        if (u[0] == 0 and u[1] == 0) or (v[0] == 0 and v[1] == 0):
            return 0.0
        return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u[0] * v[0] + u[1] * v[1])
    if kind is ConstraintKind.SPEED_NORM_DIFFERENCE:
        return abs(math.hypot(*v) - math.hypot(*u)) * (meta.fps / 30.0) / meta.diagonal
    x, y, w, h = t.end.box
    px, py = x + u[0] * gap, y + u[1] * gap
    if kind is ConstraintKind.PREDICTED_IOU:
        return 1.0 - iou((px, py, w, h), s.start.box)
    sx, sy = s.start.center
    return math.hypot(px + w / 2.0 - sx, py + h / 2.0 - sy) / meta.diagonal


def scalar_scores(distances, cfg, kinds):
    """Each constraint's score of its distance and, in ``kinds`` order, their product."""
    scores, product = {}, 1.0
    for kind, c in zip(kinds, distances):
        scores[kind] = gaussian_score(c, cfg.params[kind], cfg.lower, cfg.upper)
        product *= scores[kind]
    return scores, product


def scalar_domains(tracklets, cfg, meta):
    """build_domains pair by pair on plain floats: (id, marginals, candidate -> (scores, product)) per predecessor.

    STOP scores each constraint's ``tend``, never filtered by ``t0``.
    """
    kinds = cfg.enabled_kinds
    stop_cfg = replace(cfg, params={k: replace(p, t0=None) for k, p in cfg.params.items()})
    stop = scalar_scores([cfg.params[k].tend for k in kinds], stop_cfg, kinds)
    ordered = sorted(tracklets, key=lambda t: t.id)
    out = []
    for t in ordered:
        table = {
            s.id: scalar_scores([scalar_distance(k, t, s, meta) for k in kinds], cfg, kinds)
            for s in ordered
            if t.end.frame < s.start.frame
        }
        table[STOP] = stop
        out.append((t.id, marginals({cand: product for cand, (_, product) in table.items()}), table))
    return out


def scalar_dump(reference, kinds):
    """The candidate TSV of ``dump_candidates``, written from the scalar reference."""
    rows = [["predecessor", "candidate"] + [k.value for k in kinds] + ["product", "marginal"]]
    for tid, marg, table in reference:
        for cand, (scores, product) in table.items():
            rows.append(
                [str(tid), "STOP" if cand is STOP else str(cand)]
                + [repr(scores[k]) for k in kinds]
                + [repr(product), repr(marg.get(cand, 0.0))]
            )
    return "".join("\t".join(row) + "\n" for row in rows)


T50_RANGES = {
    ConstraintKind.TIME_DISTANCE: (0.5, 4.0),
    ConstraintKind.ANGLE_DIFFERENCE: (0.1, 1.0),
    ConstraintKind.SPEED_NORM_DIFFERENCE: (0.001, 0.02),
    ConstraintKind.PREDICTED_IOU: (0.05, 0.6),
    ConstraintKind.PREDICTED_CENTER_DISTANCE: (0.005, 0.05),
}


def random_score_config(rng):
    # every constraint on, t0 on about 40 % of them, lower down to 1e-12
    cfg = ScoreConfig(lower=float(rng.choice([1e-12, 1e-6, 0.01, 0.3])), upper=float(rng.choice([1 - 1e-6, 0.9])))
    for kind, (lo, hi) in T50_RANGES.items():
        p = cfg.params[kind]
        p.enabled = True
        p.t50 = float(rng.uniform(lo, hi))
        p.t0 = float(p.t50 * rng.uniform(1.1, 3.0)) if rng.random() < 0.4 else None
    return cfg


def random_tracklet_set(rng, n):
    """Tracklets with single detections, standing and moving objects, frame gaps and resumed paths."""
    out = []
    for tid in rng.permutation(np.arange(1, n + 1)).tolist():
        length = int(rng.choice([1, 1, 2, 3, 6, 12]))
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 3, size=length - 1))]).tolist()
        first = int(rng.integers(1, 80))
        vx, vy = (0.0, 0.0) if rng.random() < 0.3 else rng.uniform(-4, 4, size=2).tolist()
        if out and rng.random() < 0.4:
            # resume a tracklet's predicted path: small predicted-box distances
            prev = out[int(rng.integers(len(out)))]
            first = prev.end.frame + int(rng.integers(1, 5))
            # the end box moved by the end velocity, as the predicted-box constraints project it
            gap = first - prev.end.frame
            x0, y0 = (p + v * gap for p, v in zip(prev.end.box, prev.end.velocity))
            w, h = prev.end.box[2:]
        else:
            x0, y0 = rng.uniform(0, 300, size=2).tolist()
            w, h = rng.uniform(10, 60, size=2).tolist()
        dets = [Detection(first + k, tid, x0 + vx * k, y0 + vy * k, w, h, 1.0) for k in offsets]
        out.append(make_tracklet(tid, dets))
    return out


class TestColumnarScoring:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(41)
        seen = {"filtered": 0, "clamped": 0, "live": 0}
        for case in range(120):
            cfg = random_score_config(rng)
            meta = SequenceMeta(fps=[15, 30, 50][case % 3], img_width=640, img_height=480, num_frames=200)
            tls = random_tracklet_set(rng, int(rng.integers(0, 25)))
            reference = scalar_domains(tls, cfg, meta)
            got = build_domains(tls, cfg, meta)
            assert [v.tracklet_id for v in got] == [tid for tid, _, _ in reference]
            for var, (tid, marg, table) in zip(got, reference):
                assert list(var.marginals.items()) == list(marg.items())
                got_table = var.pair_scores
                assert list(got_table) == list(table)
                for cand, (scores, product) in table.items():
                    assert (got_table[cand].predecessor, got_table[cand].successor) == (tid, cand)
                    assert list(got_table[cand].scores.items()) == list(scores.items())
                    assert got_table[cand].product == product
                    if cand is STOP:
                        continue
                    for value in scores.values():
                        key = "filtered" if value == 0.0 else "clamped" if value == cfg.lower else "live"
                        seen[key] += 1
        assert min(seen.values()) >= 100, seen

    def test_empty_input(self):
        assert build_domains([], ScoreConfig(), META) == []

    def test_dump_matches_scalar_reference(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 10.0
        # 3 resumes 1 thirty frames later: past t0, so its row is filtered
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20, x0=11.0), tracklet(3, 40, 50, x0=39.0), tracklet(4, 15, 15)]
        stream = io.StringIO()
        succ_vars = build_domains(tls, cfg, META)
        dump_candidates(succ_vars, stream)
        text = stream.getvalue()
        assert text == scalar_dump(scalar_domains(tls, cfg, META), cfg.enabled_kinds)
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        assert ["1", "3"] in [row[:2] for row in rows if row[-1] == "0.0" and row[-2] == "0.0"]
        assert sum(row[1] == "STOP" for row in rows) == len(tls)

        rng = np.random.default_rng(43)
        for _ in range(20):
            cfg = random_score_config(rng)
            tls = random_tracklet_set(rng, int(rng.integers(1, 15)))
            stream = io.StringIO()
            dump_candidates(build_domains(tls, cfg, META), stream)
            assert stream.getvalue() == scalar_dump(scalar_domains(tls, cfg, META), cfg.enabled_kinds)

    def test_pair_scores_count_every_admissible_pair(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            tls = random_tracklet_set(rng, int(rng.integers(1, 20)))
            for var in build_domains(tls, ScoreConfig(), META):
                t = next(t for t in tls if t.id == var.tracklet_id)
                assert len(var.pair_scores) - 1 == sum(t.end.frame < s.start.frame for s in tls)

    def test_pair_scores_built_only_when_read(self, monkeypatch):
        built = []
        init = PairScores.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairScores, "__init__", counting_init)
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20), tracklet(3, 25, 30)]
        succ_vars = build_domains(tls, ScoreConfig(), META)
        assert built == []
        table = succ_vars[0].pair_scores
        assert list(table) == [2, 3, STOP]
        assert len(built) == 3

    def test_rows_keep_hard_filtered_entries(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 10.0
        # 3 resumes 1 thirty frames later: past t0, so it stays in the row with product 0
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20, x0=11.0), tracklet(3, 40, 50, x0=39.0)]
        domains = build_domains(tls, cfg, META)
        assert domains.edge_count == 3 and len(domains.products) == 6
        assert list(domains[0].pair_scores) == [2, 3, STOP] and domains[0].pair_scores[3].product == 0.0
        assert list(domains[0].marginals) == [2, STOP]

    @pytest.mark.parametrize(
        "seed, t0, digest",
        [
            (1, False, "970d52b2c8cd0e58ef9027ff1a1397947d04abbbd23f3209001d51a86e6c0db8"),
            (2, True, "d96792050964a914954fcbdb0372e3a22de54da5663caada3f6a4f4af12dc5aa"),
        ],
        ids=["default", "t0"],
    )
    def test_dump_bytes_are_pinned_on_crossing_scenes(self, seed, t0, digest):
        # the bytes of the dump as written one variable and one pair at a time
        tracklets, meta = crossing_scene(seed)
        cfg = ScoreConfig()
        if t0:
            cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 20.0
            cfg.params[ConstraintKind.PREDICTED_CENTER_DISTANCE].t0 = 0.1
        domains = build_domains(tracklets, cfg, meta)
        assert (domains.products == 0).any() == t0
        stream = io.StringIO()
        dump_candidates(domains, stream)
        assert hashlib.sha256(stream.getvalue().encode()).hexdigest() == digest

    def test_dump_rejects_hand_built_domains(self):
        with pytest.raises(ValueError, match="^hand-built domains carry no scores to dump$"):
            dump_candidates(Domains.of([SuccessorVar(1, {STOP: 1.0})]), io.StringIO())


def plain_sum(values):
    """A left-to-right loop of +, the rounding every solver total keeps."""
    total = 0.0
    for value in values:
        total += value
    return total


class ObjectState:
    """One variable's search state as per-variable objects: the solver before its state became columns."""

    def __init__(self, var):
        self.attached = dict(var.marginals)
        self.order = sorted(self.attached, key=lambda c: (-self.attached[c], c is STOP, c if c is not STOP else 0))
        self.removed = set()
        self.total = plain_sum(self.attached.values())
        self.shrunk = False
        self.best_idx = 0

    def empty(self):
        return len(self.removed) == len(self.order)

    def best_marginal(self):
        value = self.attached[self.order[self.best_idx]]
        return value / self.total if self.shrunk else value

    def remove(self, cand, trail):
        trail.append((self, cand, self.total, self.shrunk, self.best_idx))
        self.removed.add(cand)
        if self.shrunk and self.attached[cand] <= self.total / 2:
            self.total -= self.attached[cand]
        else:
            self.total = plain_sum(self.attached[c] for c in self.attached if c not in self.removed)
            self.shrunk = True
        while self.best_idx < len(self.order) and self.order[self.best_idx] in self.removed:
            self.best_idx += 1


def object_search(succ_vars):
    """The max-marginal search over ObjectState variables, scanning every variable per bind."""
    states = {var.tracklet_id: ObjectState(var) for var in succ_vars}
    assignment, trail, choices = {}, [], []
    nodes = 1
    backtracks = 0
    while len(assignment) < len(states):
        best = None
        for vid, st in states.items():
            if vid in assignment:
                continue
            if st.empty():
                best = None
                break
            m = st.best_marginal()
            if best is None or m > best[0] or (m == best[0] and vid < best[1]):
                best = (m, vid, st.order[st.best_idx])
        if best is None:
            if not choices:
                return None, nodes, backtracks
            vid, cand, mark = choices.pop()
            while len(trail) > mark:
                state, removed, total, shrunk, best_idx = trail.pop()
                state.removed.discard(removed)
                state.total, state.shrunk, state.best_idx = total, shrunk, best_idx
            del assignment[vid]
            states[vid].remove(cand, trail)
            backtracks += 1
            continue
        _, vid, cand = best
        choices.append((vid, cand, len(trail)))
        assignment[vid] = cand
        nodes += 1
        if cand is not STOP:
            for wid, wst in states.items():
                if wid not in assignment and cand in wst.attached and cand not in wst.removed:
                    wst.remove(cand, trail)
    return assignment, nodes, backtracks


def crossing_scene(seed):
    """The cut tracklets of a crossing scene, with crossings, swaps and fragments as in the bench's crossing workload."""
    from trackstitch.synth import CorruptionConfig, ScenarioConfig, corrupt, generate
    from trackstitch.tracklets import cut_tracklets, group_tracklets

    gt, meta = generate(ScenarioConfig(num_objects=20, num_frames=300, crossings=6, seed=seed))
    tracker, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, seed=seed))
    return cut_tracklets(group_tracklets(tracker), 0.5), meta


def crossing_domains(seed):
    """build_domains of a crossing scene, the angle constraint on for even seeds."""
    tracklets, meta = crossing_scene(seed)
    cfg = ScoreConfig()
    cfg.params[ConstraintKind.ANGLE_DIFFERENCE].enabled = seed % 2 == 0
    return build_domains(tracklets, cfg, meta)


class TestColumnSolver:
    def assert_same_search(self, succ_vars):
        expected, nodes, backtracks = object_search(succ_vars)
        if expected is None:
            with pytest.raises(RuntimeError, match="no feasible"):
                solve_with_stats(succ_vars)
            return
        got, stats = solve_with_stats(succ_vars)
        assert list(got.items()) == list(expected.items())  # bind order too
        assert (stats.nodes, stats.backtracks) == (nodes, backtracks)

    def test_matches_object_search_on_random_instances(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            self.assert_same_search(build_domains(random_instance(rng, n_max=30), ScoreConfig(), META))

    def test_matches_object_search_on_filtered_domains(self):
        # random configs set t0 on about 40 % of the constraints, so some entries start out removed
        rng = np.random.default_rng(53)
        filtered = 0
        for _ in range(200):
            domains = build_domains(random_tracklet_set(rng, int(rng.integers(1, 25))), random_score_config(rng), META)
            filtered += int((domains.products == 0).sum())
            self.assert_same_search(domains)
        assert filtered > 100

    def test_matches_object_search_on_hand_built_instances(self):
        rng = np.random.default_rng(52)
        for _ in range(1000):
            self.assert_same_search(dominant_instance(rng))
            self.assert_same_search(hand_built_instance(rng))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_object_search_on_crossing_scenes(self, seed):
        domains = crossing_domains(seed)
        assert len(domains) > 50
        self.assert_same_search(domains)
        self.assert_same_search(list(domains))  # the same variables, converted on entry

    def test_stop_only_variables_bind_in_id_order(self):
        succ_vars = [SuccessorVar(vid, {STOP: 1.0}) for vid in (5, 3, 9, 1)]
        got, stats = solve_with_stats(succ_vars)
        assert list(got.items()) == [(1, STOP), (3, STOP), (5, STOP), (9, STOP)]
        assert (stats.nodes, stats.backtracks) == (5, 0)

    def test_domains_read_as_successor_vars(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 22), tracklet(3, 25, 30)]
        domains = build_domains(tls, ScoreConfig(), META)
        assert len(domains) == 3 and domains.edge_count == 3
        assert [var.tracklet_id for var in domains] == [1, 2, 3]
        assert domains[-1] == domains[2] == SuccessorVar(3, {STOP: 1.0})
        assert domains == list(domains) and domains != list(domains)[:2]
        with pytest.raises(IndexError):
            domains[3]

    def test_conversion_checks_variables_in_input_order(self):
        with pytest.raises(ValueError, match="^duplicate variable for tracklet 2$"):
            solve_with_stats([SuccessorVar(2, {STOP: 1.0}), SuccessorVar(2, {STOP: 1.0}), SuccessorVar(1, {})])
        with pytest.raises(ValueError, match="^variable 1 has an empty domain$"):
            solve_with_stats([SuccessorVar(2, {STOP: 1.0}), SuccessorVar(1, {}), SuccessorVar(3, {STOP: -1.0})])


class TestUnknownIds:
    def test_validate_assignment_names_an_unknown_successor(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20)]
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 99$"):
            validate_assignment({1: 99, 2: None}, tls)

    def test_validate_assignment_names_an_unknown_predecessor(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20)]
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 7$"):
            validate_assignment({1: STOP, 7: STOP}, tls)

    def test_stitch_names_an_unknown_successor(self):
        tls = [tracklet(1, 1, 10), tracklet(2, 12, 20)]
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 99$"):
            stitch({1: 99, 2: STOP}, tls)


def test_stitch_rejects_a_chain_that_goes_back_in_time():
    # 2 starts at frame 5, before 1 ends, and 3 in the frame where 2 ends;
    # the trajectories are numbered by chain, from 1
    tls = [tracklet(1, 1, 10), tracklet(2, 5, 20), tracklet(3, 20, 25)]
    with pytest.raises(ValueError, match=r"^track 1 goes back in time: frame 5 follows frame 10$"):
        stitch({1: 2, 2: STOP, 3: STOP}, tls)
    with pytest.raises(ValueError, match=r"^\(2,20\) duplicated: track 2 has two detections in frame 20$"):
        stitch({1: STOP, 2: 3, 3: STOP}, tls)
