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
from trackstitch.mot_io import Detection, DetectionTable, SequenceMeta
from trackstitch.scoring import (
    ConstraintKind,
    PairScores,
    ScoreConfig,
    gaussian_scores,
    left_sums,
)
from trackstitch.tracklets import Tracklets, aranges, group_tracklets, iou_pairs

from test_number_format import track_text

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=1000)


def run(tid, first, last, x0=0.0, vx=1.0, y0=0.0):
    """Track ``tid``'s detections in frames ``first`` to ``last``, moving ``vx`` pixels per frame."""
    return [Detection(f, tid, x0 + vx * (f - first), y0, 10.0, 10.0, 1.0) for f in range(first, last + 1)]


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
    detections = []
    for tid in range(1, n + 1):
        first = int(rng.integers(1, 200))
        length = int(rng.integers(1, 20))
        detections += run(tid, first, first + length, x0=float(rng.uniform(0, 1800)), vx=float(rng.uniform(-2, 2)))
    return group_tracklets(detections)


class TestBuildDomains:
    def test_temporal_overlap_leaves_only_stop(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 5, 15))
        for var in build_domains(tls, ScoreConfig(), META):
            assert var.domain == (STOP,)

    def test_enumerates_strictly_later_starters(self):
        tls = group_tracklets(run(1, 1, 5) + run(2, 7, 9) + run(3, 8, 12))
        domains = {v.tracklet_id: set(v.domain) for v in build_domains(tls, ScoreConfig(), META)}
        assert domains[1] == {2, 3, STOP}
        assert domains[2] == {STOP}  # 3 starts at 8 <= 9
        assert domains[3] == {STOP}

    def test_equal_end_start_frame_excluded(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 10, 20))
        domains = {v.tracklet_id: set(v.domain) for v in build_domains(tls, ScoreConfig(), META)}
        assert domains[1] == {STOP}

    def test_marginals_are_normalized(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 22) + run(3, 25, 30))
        for var in build_domains(tls, ScoreConfig(), META):
            assert sum(var.marginals.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0 < m <= 1 for m in var.marginals.values())

    def test_t0_filter_removes_candidates_but_never_stop(self):
        cfg = ScoreConfig()
        p = cfg.params[ConstraintKind.TIME_DISTANCE]
        p.t50 = 1e-9
        p.t0 = 2e-9  # any real gap scores 0: all candidates filtered
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 22))
        domains = {v.tracklet_id: v.domain for v in build_domains(tls, cfg, META)}
        assert domains[1] == (STOP,)

    def test_duplicate_ids_rejected(self):
        rows = DetectionTable.of(run(1, 1, 10) + run(2, 12, 22) + run(1, 24, 30))
        with pytest.raises(ValueError, match="duplicate"):
            build_domains(Tracklets(rows), ScoreConfig(), META)


class TestSolve:
    def test_single_tracklet_stops(self):
        tls = group_tracklets(run(1, 1, 10))
        assignment, _ = solve_with_stats(build_domains(tls, ScoreConfig(), META))
        assert assignment == {1: STOP}

    def test_two_tracklets_within_tend_link(self):
        # td = 2 scores 2^-4; STOP scores 2^-9: the candidate wins
        cfg = ScoreConfig()
        for kind in ConstraintKind:
            cfg.params[kind].enabled = kind is ConstraintKind.TIME_DISTANCE
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 22))
        assignment, _ = solve_with_stats(build_domains(tls, cfg, META))
        assert assignment == {1: 2, 2: STOP}

    def test_two_tracklets_beyond_tend_stop(self):
        cfg = ScoreConfig()
        for kind in ConstraintKind:
            cfg.params[kind].enabled = kind is ConstraintKind.TIME_DISTANCE
        tls = group_tracklets(run(1, 1, 10) + run(2, 16, 26))  # td = 5 > tend = 3
        assignment, _ = solve_with_stats(build_domains(tls, cfg, META))
        assert assignment == {1: STOP, 2: STOP}

    def test_alldifferent_steers_weaker_predecessor_to_stop(self):
        # hand-built marginals: t1 wants t3 with 0.9, t2 with 0.2
        v1 = SuccessorVar(1, {3: 0.9 / 0.901, STOP: 0.001 / 0.901})
        v2 = SuccessorVar(2, {3: 0.2 / 0.201, STOP: 0.001 / 0.201})
        v3 = SuccessorVar(3, {STOP: 1.0})
        assignment, _ = solve_with_stats([v1, v2, v3])
        assert assignment == {1: 3, 2: STOP, 3: STOP}

    def test_infeasible_instance_raises(self):
        # x and y cannot both take 10; without STOP one of them would have no
        # value left, so a domain without STOP is refused before the pass
        x = SuccessorVar(1, {10: 0.9})
        y = SuccessorVar(2, {10: 0.3})
        with pytest.raises(ValueError, match="^variable 1 has no STOP entry$"):
            solve_with_stats([x, y])

    def test_removing_the_dominant_candidate_keeps_a_positive_total(self):
        # 3 loses 11 (a re-sum to 1.0 + 1e-20 == 1.0), then 10, which held
        # all of that total: subtracting it would leave 0 for STOP's 1e-20.
        # Hand-built marginals need not sum to 1: at 1.0, 1 and 2 each bind
        # before 3, whose shrunk best marginal is 1.0 too
        v1 = SuccessorVar(1, {11: 1.0, STOP: 1e-20})
        v2 = SuccessorVar(2, {10: 1.0, STOP: 1e-20})
        # the products 1.0, 0.5 and 1e-20 normalized: their total rounds to 1.5
        v3 = SuccessorVar(3, {10: 1.0 / 1.5, 11: 0.5 / 1.5, STOP: 1e-20 / 1.5})
        assignment, stats = solve_with_stats([v1, v2, v3])
        assert assignment == {1: 11, 2: 10, 3: STOP}
        assert stats.backtracks == 0

    @pytest.mark.parametrize(
        "bad", [{10: 0.0, STOP: 0.0}, {10: math.nan, STOP: 1.0}, {10: math.inf, STOP: 1.0}, {10: -0.5, STOP: 1.5}]
    )
    def test_rejects_marginals_that_are_not_finite_and_positive(self, bad):
        # hand-built marginals stand in for products: a 0 marks a filtered entry, which STOP may not be
        if bad[STOP] == 0:
            message = "variable 2 has a STOP entry whose product is not positive"
        else:
            message = "variable 2 has a product or marginal that is not finite and >= 0, or a marginal on a product of 0"
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_with_stats([SuccessorVar(1, {10: 0.5, STOP: 0.5}), SuccessorVar(2, bad)])

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
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20) + run(3, 1, 8, y0=50.0))
        out = stitch({1: 2, 2: STOP, 3: STOP}, tls)
        spans = sorted(zip(out.ends.start_frame.tolist(), out.ends.end_frame.tolist()))
        assert spans == [(1, 8), (1, 20)]
        assert [t.id for t in out] == [1, 2]

    def test_all_stop_is_identity_modulo_ids(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20))
        out = stitch({1: STOP, 2: STOP}, tls)
        assert list(zip(out.ends.start_frame.tolist(), out.ends.end_frame.tolist())) == [(1, 10), (12, 20)]

    def test_four_chain_has_monotone_frames(self):
        tls = group_tracklets([d for i in range(1, 5) for d in run(i, 10 * i, 10 * i + 8)])
        out = stitch({1: 2, 2: 3, 3: 4, 4: STOP}, tls)
        assert len(out) == 1
        frames = [d.frame for d in out[0].detections]
        assert frames == sorted(frames)
        assert len(set(frames)) == len(frames)

    def test_preserves_detection_multiset(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20))
        out = stitch({1: 2, 2: STOP}, tls)
        before = sorted((d.frame, d.x, d.y) for t in tls for d in t.detections)
        after = sorted((d.frame, d.x, d.y) for t in out for d in t.detections)
        assert before == after

    def test_relabels_detections_with_fresh_ids(self):
        tls = group_tracklets(run(5, 1, 10) + run(9, 12, 20))
        out = stitch({5: 9, 9: STOP}, tls)
        assert out[0].id == 1
        assert {d.track_id for d in out[0].detections} == {1}


def hand_built_instance(rng):
    # marginals are multiples of 1/64, so every total the solver keeps is exact;
    # candidates share a small pool, and every domain holds STOP
    n = int(rng.integers(2, 7))
    pool = np.arange(100, 101 + n)
    succ_vars = []
    for vid in range(1, n + 1):
        cands = rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)
        dom = {int(c): int(rng.integers(1, 65)) / 64 for c in cands}
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
        total = left_sums(np.array(list(weights.values())), (0, len(weights))).item()
        succ_vars.append(SuccessorVar(vid, {c: weight / total for c, weight in weights.items()}))
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


def scalar_distance(kind, ends, t, s, meta):
    """Each constraint's distance from row ``t`` to row ``s`` of ``ends``, written pair by pair on plain floats, as the scoring model defines it."""
    gap = ends.start_frame[s].item() - ends.end_frame[t].item()
    if kind is ConstraintKind.TIME_DISTANCE:
        return gap * (30.0 / meta.fps)
    u, v = ends.end_velocity[t].tolist(), ends.start_velocity[s].tolist()
    if kind is ConstraintKind.ANGLE_DIFFERENCE:
        if (u[0] == 0 and u[1] == 0) or (v[0] == 0 and v[1] == 0):
            return 0.0
        return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u[0] * v[0] + u[1] * v[1])
    if kind is ConstraintKind.SPEED_NORM_DIFFERENCE:
        return abs(math.hypot(*v) - math.hypot(*u)) * (meta.fps / 30.0) / meta.diagonal
    x, y, w, h = ends.end_box[t].tolist()
    px, py = x + u[0] * gap, y + u[1] * gap
    sx, sy, sw, sh = ends.start_box[s].tolist()
    if kind is ConstraintKind.PREDICTED_IOU:
        return 1.0 - float(iou_pairs((px, py, w, h), (sx, sy, sw, sh)))
    return math.hypot(px + w / 2.0 - (sx + sw / 2.0), py + h / 2.0 - (sy + sh / 2.0)) / meta.diagonal


def scalar_scores(distances, cfg, kinds):
    """Each constraint's score of its distance and, in ``kinds`` order, their product."""
    scores, product = {}, 1.0
    for kind, c in zip(kinds, distances):
        scores[kind] = gaussian_scores(np.array([c]), cfg.params[kind], cfg.lower, cfg.upper).item()
        product *= scores[kind]
    return scores, product


def scalar_domains(tracklets, cfg, meta):
    """build_domains pair by pair on plain floats: (id, marginals, candidate -> (scores, product)) per predecessor.

    STOP scores each constraint's ``tend``, never filtered by ``t0``.
    """
    kinds = cfg.enabled_kinds
    stop_cfg = replace(cfg, params={k: replace(p, t0=None) for k, p in cfg.params.items()})
    stop = scalar_scores([cfg.params[k].tend for k in kinds], stop_cfg, kinds)
    ends = tracklets.ends
    ordered = sorted(range(len(tracklets)), key=lambda k: ends.ids[k])
    out = []
    for t in ordered:
        table = {
            ends.ids[s].item(): scalar_scores([scalar_distance(k, ends, t, s, meta) for k in kinds], cfg, kinds)
            for s in ordered
            if ends.end_frame[t] < ends.start_frame[s]
        }
        table[STOP] = stop
        # the candidates with a positive product, over their total added left to right
        total = 0.0
        for _, product in table.values():
            total += product
        marg = {cand: product / total for cand, (_, product) in table.items() if product > 0}
        out.append((ends.ids[t].item(), marg, table))
    return out


def scalar_dump(reference, kinds):
    """The candidate TSV of ``dump_candidates``, written from the scalar reference by the track rule."""
    rows = [["predecessor", "candidate"] + [k.value for k in kinds] + ["product", "marginal"]]
    for tid, marg, table in reference:
        for cand, (scores, product) in table.items():
            rows.append(
                [str(tid), "STOP" if cand is STOP else str(cand)]
                + [track_text(scores[k]) for k in kinds]
                + [track_text(product), track_text(marg.get(cand, 0.0))]
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
    out = []  # the detections of each tracklet
    for tid in rng.permutation(np.arange(1, n + 1)).tolist():
        length = int(rng.choice([1, 1, 2, 3, 6, 12]))
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 3, size=length - 1))]).tolist()
        first = int(rng.integers(1, 80))
        vx, vy = (0.0, 0.0) if rng.random() < 0.3 else rng.uniform(-4, 4, size=2).tolist()
        if out and rng.random() < 0.4:
            # resume a tracklet's predicted path: small predicted-box distances
            prev = out[int(rng.integers(len(out)))]
            ends = Tracklets(DetectionTable.of(prev)).ends
            last, box, velocity = ends.end_frame[0].item(), ends.end_box[0].tolist(), ends.end_velocity[0].tolist()
            first = last + int(rng.integers(1, 5))
            # the end box moved by the end velocity, as the predicted-box constraints project it
            x0, y0 = (p + v * (first - last) for p, v in zip(box, velocity))
            w, h = box[2:]
        else:
            x0, y0 = rng.uniform(0, 300, size=2).tolist()
            w, h = rng.uniform(10, 60, size=2).tolist()
        dets = [Detection(first + k, tid, x0 + vx * k, y0 + vy * k, w, h, 1.0) for k in offsets]
        out.append(dets)
    return group_tracklets([d for dets in out for d in dets])


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
        assert build_domains(group_tracklets([]), ScoreConfig(), META) == []

    def test_dump_matches_scalar_reference(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 10.0
        # 3 resumes 1 thirty frames later: past t0, so its row is filtered
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20, x0=11.0) + run(3, 40, 50, x0=39.0) + run(4, 15, 15))
        stream = io.StringIO()
        succ_vars = build_domains(tls, cfg, META)
        dump_candidates(succ_vars, stream)
        text = stream.getvalue()
        assert text == scalar_dump(scalar_domains(tls, cfg, META), cfg.enabled_kinds)
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        assert ["1", "3"] in [row[:2] for row in rows if row[-1] == "0" and row[-2] == "0"]
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
            ends = tls.ends
            for var in build_domains(tls, ScoreConfig(), META):
                (t,) = np.flatnonzero(ends.ids == var.tracklet_id)
                assert len(var.pair_scores) - 1 == np.count_nonzero(ends.end_frame[t] < ends.start_frame)

    def test_pair_scores_built_only_when_read(self, monkeypatch):
        built = []
        init = PairScores.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairScores, "__init__", counting_init)
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20) + run(3, 25, 30))
        succ_vars = build_domains(tls, ScoreConfig(), META)
        assert built == []
        table = succ_vars[0].pair_scores
        assert list(table) == [2, 3, STOP]
        assert len(built) == 3

    def test_rows_keep_hard_filtered_entries(self):
        cfg = ScoreConfig()
        cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 10.0
        # 3 resumes 1 thirty frames later: past t0, so it stays in the row with product 0
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20, x0=11.0) + run(3, 40, 50, x0=39.0))
        domains = build_domains(tls, cfg, META)
        assert domains.edge_count == 3 and len(domains.products) == 6
        assert list(domains[0].pair_scores) == [2, 3, STOP] and domains[0].pair_scores[3].product == 0.0
        assert list(domains[0].marginals) == [2, STOP]

    @pytest.mark.parametrize(
        "seed, t0, digest",
        [
            (1, False, "57fa4da0d07320be8eefe7c24411054bd6804ced5f7b6f285564989589ba1355"),
            (2, True, "b8a1a90908840c2b01f32cf83dc5049a8b19c29fe188ec3dcd89b0e5e9526e38"),
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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dump_numbers_read_back_bit_for_bit(self, seed):
        # integral values print without ".0"; every number parses back to its column
        tracklets, meta = crossing_scene(seed)
        cfg = ScoreConfig()
        if seed == 2:
            cfg.params[ConstraintKind.TIME_DISTANCE].t0 = 20.0
        domains = build_domains(tracklets, cfg, meta)
        stream = io.StringIO()
        dump_candidates(domains, stream)
        rows = [line.split("\t") for line in stream.getvalue().splitlines()[1:]]
        numbers = np.array([[float(f) for f in row[2:]] for row in rows])
        columns = np.stack([*domains.scores, domains.products, domains.marginals], axis=1)
        assert numbers.view(np.uint64).tolist() == columns.view(np.uint64).tolist()
        assert not any(f.endswith(".0") for row in rows for f in row)
        assert {"1"} <= {row[-1] for row in rows}
        assert ({"0"} <= {row[-2] for row in rows}) == (seed == 2)

    def test_dump_prints_each_value_by_the_track_rule(self):
        # 0.0 and -0.0 are equal and print alike, as 0
        scores = np.array([[0.0, -0.0, 1e-5, 0.25], [-0.0, 0.0, 3.0, 1e16]])
        domains = Domains(
            np.array([7]), np.array([0, 4]), np.array([8, 9, 10, 0]),
            np.array([0.5, -0.0, 0.0, 0.5]), np.array([1.0, 0.0, -0.0, 2.0**-1074]),
            [ConstraintKind.TIME_DISTANCE, ConstraintKind.ANGLE_DIFFERENCE], scores,
        )
        stream = io.StringIO()
        dump_candidates(domains, stream)
        assert stream.getvalue().splitlines()[1:] == [
            "7\t8\t0\t0\t1\t0.5",
            "7\t9\t0\t0\t0\t0",
            "7\t10\t1e-05\t3\t0\t0",
            "7\tSTOP\t0.25\t1e+16\t5e-324\t0.5",
        ]

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

    def best_marginal(self):
        value = self.attached[self.order[self.best_idx]]
        return value / self.total if self.shrunk else value

    def remove(self, cand):
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
    assignment = {}
    nodes = 1
    while len(assignment) < len(states):
        best = None
        for vid, st in states.items():
            if vid in assignment:
                continue
            m = st.best_marginal()
            if best is None or m > best[0] or (m == best[0] and vid < best[1]):
                best = (m, vid, st.order[st.best_idx])
        _, vid, cand = best
        assignment[vid] = cand
        nodes += 1
        if cand is not STOP:
            for wid, wst in states.items():
                if wid not in assignment and cand in wst.attached and cand not in wst.removed:
                    wst.remove(cand)
    return assignment, nodes


def crossing_scene(seed):
    """The cut tracklets of a crossing scene, with crossings, swaps and fragments as in the bench's crossing workload."""
    from trackstitch.synth import CorruptionConfig, ScenarioConfig, corrupt, generate
    from trackstitch.tracklets import cut_tracklets

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
        expected, nodes = object_search(succ_vars)
        got, stats = solve_with_stats(succ_vars)
        assert list(got.items()) == list(expected.items())  # bind order too
        assert (stats.nodes, stats.backtracks) == (nodes, 0)

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
        # the largest int64 id ties with STOP in variable 1, and still comes before it
        largest = [SuccessorVar(1, {2**63 - 1: 0.5, STOP: 0.5}), SuccessorVar(2, {5: 0.9, STOP: 0.1})]
        self.assert_same_search(largest)
        got, stats = solve_with_stats(largest)
        assert list(got.items()) == [(2, 5), (1, 2**63 - 1)] and stats.nodes == 3

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
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 22) + run(3, 25, 30))
        domains = build_domains(tls, ScoreConfig(), META)
        assert len(domains) == 3 and domains.edge_count == 3
        assert [var.tracklet_id for var in domains] == [1, 2, 3]
        assert domains[-1] == domains[2] == SuccessorVar(3, {STOP: 1.0})
        assert domains == list(domains) and domains != list(domains)[:2]
        with pytest.raises(IndexError):
            domains[3]

    @staticmethod
    def assert_each_row_ends_in_stop(domains):
        # STOP is candidate 0, each row's last entry; tracklet ids start at 1
        assert np.flatnonzero(domains.candidates == 0).tolist() == (domains.offsets[1:] - 1).tolist()
        assert all(list(var.marginals)[-1] is STOP for var in domains)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_built_rows_end_in_one_stop(self, seed):
        self.assert_each_row_ends_in_stop(crossing_domains(seed))

    def test_hand_built_rows_end_in_one_stop(self):
        succ_vars = [SuccessorVar(3, {5: 0.5, STOP: 0.5}), SuccessorVar(1, {STOP: 1.0}), SuccessorVar(2, {9: 0.2, 4: 0.3, STOP: 0.5})]
        domains = Domains.of(succ_vars)
        self.assert_each_row_ends_in_stop(domains)
        assert domains.candidates.tolist() == [0, 9, 4, 0, 5, 0]

    def test_conversion_checks_variables_in_id_order(self):
        # the table's rules are checked on its rows, which follow the ids, not the input
        with pytest.raises(ValueError, match="^variable 1 has no STOP entry$"):
            solve_with_stats([SuccessorVar(2, {STOP: 1.0}), SuccessorVar(2, {STOP: 1.0}), SuccessorVar(1, {})])
        with pytest.raises(ValueError, match="^variable 2 is out of order or repeated: ids must increase strictly from 1$"):
            solve_with_stats([SuccessorVar(2, {STOP: 1.0}), SuccessorVar(3, {}), SuccessorVar(2, {STOP: 1.0})])
        with pytest.raises(ValueError, match="^variable 1 has no STOP entry$"):
            solve_with_stats([SuccessorVar(3, {STOP: -1.0}), SuccessorVar(2, {STOP: 1.0}), SuccessorVar(1, {})])
        # ids are checked first, as given, since an int64 column cannot hold every bad one
        with pytest.raises(ValueError, match=r"^a tracklet id of variable 3 must be in \[1, 2\*\*63\), got 0$"):
            solve_with_stats([SuccessorVar(1, {}), SuccessorVar(3, {0: 1.0}), SuccessorVar(2, {-1: 1.0})])

    @pytest.mark.parametrize(
        "succ_vars, message",
        [
            # solved, variable 1 would bind itself: a self-loop that validate_assignment rejects
            ([SuccessorVar(1, {1: 0.9, STOP: 0.1})], "variable 1 names itself as a candidate"),
            ([SuccessorVar(3, {STOP: 1.0}), SuccessorVar(2, {2: 0.5}), SuccessorVar(4, {})], "variable 2 names itself as a candidate"),
            ([SuccessorVar(1, {2: 0.5, STOP: 0.5}), SuccessorVar(2, {1: 0.5})], "variable 2 has no STOP entry"),
        ],
        ids=["self-loop", "self-loop before STOP", "no STOP"],
    )
    def test_conversion_rejects_a_domain_the_pass_cannot_use(self, succ_vars, message):
        with pytest.raises(ValueError) as raised:
            solve_with_stats(succ_vars)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "succ_vars, vid",
        [
            # a candidate id of -1 cast to uint64 would tie with STOP
            ([SuccessorVar(1, {-1: 0.5, STOP: 0.5}), SuccessorVar(2, {3: 1.0})], 1),
            ([SuccessorVar(2, {STOP: 1.0}), SuccessorVar(0, {STOP: 1.0})], 0),
            ([SuccessorVar(1, {STOP: 1.0}), SuccessorVar(3, {0: 0.5, STOP: 0.5})], 3),
        ],
    )
    def test_conversion_rejects_ids_below_one(self, succ_vars, vid):
        with pytest.raises(ValueError, match=rf"^a tracklet id of variable {vid} must be in \[1, 2\*\*63\), got (-1|0)$"):
            solve_with_stats(succ_vars)

    @pytest.mark.parametrize(
        "succ_vars, message",
        [
            # an int64 column would truncate 2.5 to 2 and bind 1.5 and True as variable 1
            (
                [SuccessorVar(1, {2.5: 0.9, STOP: 0.1}), SuccessorVar(2, {STOP: 1.0})],
                "a tracklet id of variable 1 must be an integer, got 2.5",
            ),
            ([SuccessorVar(1.5, {STOP: 1.0})], "a tracklet id of variable 1.5 must be an integer, got 1.5"),
            ([SuccessorVar(True, {STOP: 1.0})], "a tracklet id of variable True must be an integer, got True"),
            # 2**63 does not fit an int64 column
            ([SuccessorVar(1, {2**63: 1.0})], f"a tracklet id of variable 1 must be in [1, 2**63), got {2**63}"),
            ([SuccessorVar(2**63, {STOP: 1.0})], f"a tracklet id of variable {2**63} must be in [1, 2**63), got {2**63}"),
        ],
        ids=["candidate 2.5", "variable 1.5", "variable True", "candidate 2**63", "variable 2**63"],
    )
    def test_conversion_rejects_ids_that_are_not_int64_integers(self, succ_vars, message):
        with pytest.raises(ValueError) as raised:
            solve_with_stats(succ_vars)
        assert str(raised.value) == message
        assert solve_with_stats([SuccessorVar(2**63 - 1, {STOP: 1.0})])[0] == {2**63 - 1: None}


def table(ids, offsets, candidates, products, marginals=None):
    """A :class:`Domains` built from its columns, as given."""
    arrays = [np.array(ids), np.array(offsets), np.array(candidates), np.array(products, dtype=float)]
    return Domains(*arrays[:3], arrays[3] if marginals is None else np.array(marginals, dtype=float), arrays[3])


class TestTableRules:
    @pytest.mark.parametrize(
        "domains, message",
        [
            # both candidates are 10: no STOP
            (table([1, 2], [0, 1, 2], [10, 10], [1.0, 1.0]), "variable 1 has no STOP entry"),
            # variable 1 also lacks STOP, but naming itself is the earlier rule
            (table([1, 2], [0, 1, 2], [1, 0], [1.0, 1.0]), "variable 1 names itself as a candidate"),
            (table([1], [0, 2], [0, 0], [1.0, 1.0]), "variable 1 has more than one STOP entry"),
            (table([1, 2], [0, 1, 2], [0, 0], [1.0, 0.0]), "variable 2 has a STOP entry whose product is not positive"),
            # the pass would divide STOP's 0 by a total of 0
            (table([1, 2, 3], [0, 2, 4, 5], [3, 0, 3, 0, 0], [1.0] * 5, [1.0, 0.0, 0.9, 0.0, 1.0]), "variable 1 has a STOP entry whose marginal is not positive"),
            (table([1], [0, 2], [5, 0], [1.0, 1.0], [math.nan, 1.0]), "variable 1 has a product or marginal that is not finite and >= 0, or a marginal on a product of 0"),
            (table([1], [0, 2], [5, 0], [-0.5, 1.0]), "variable 1 has a product or marginal that is not finite and >= 0, or a marginal on a product of 0"),
            # a filtered entry that the pass would bind
            (table([1], [0, 2], [5, 0], [0.0, 1.0], [0.9, 0.1]), "variable 1 has a product or marginal that is not finite and >= 0, or a marginal on a product of 0"),
            (table([1, 2], [0, 1, 4], [0, 5, 6, 0], [1.0, 1e308, 1e308, 1.0]), "variable 2 has products whose total is not finite"),
            (table([2, 1], [0, 1, 2], [0, 0], [1.0, 1.0]), "variable 1 is out of order or repeated: ids must increase strictly from 1"),
            (table([0, 1], [0, 1, 2], [0, 0], [1.0, 1.0]), "variable 0 is out of order or repeated: ids must increase strictly from 1"),
            (table([1, 1], [0, 1, 2], [0, 0], [1.0, 1.0]), "variable 1 is out of order or repeated: ids must increase strictly from 1"),
        ],
        ids=["no STOP", "self and no STOP", "two STOPs", "STOP of 0", "STOP marginal of 0", "NaN marginal", "negative product", "filtered marginal", "total overflows",
             "ids descend", "id 0", "id twice"],
    )
    def test_solve_checks_a_table_built_from_columns(self, domains, message):
        with pytest.raises(ValueError) as raised:
            solve_with_stats(domains)
        assert str(raised.value) == message

    def test_rules_allow_filtered_entries_and_totals_that_only_overflow_across_rows(self):
        # a product of 0 is a filtered entry, hand-built too; each row's total is finite, though all of them add up to inf
        assert solve_with_stats([SuccessorVar(1, {5: 0.0, STOP: 1.0})])[0] == {1: STOP}
        domains = table([1, 2], [0, 2, 4], [2, 0, 3, 0], [1e308, 1.0, 1e308, 1.0])
        assert solve_with_stats(domains)[0] == {1: 2, 2: 3}
        assert solve_with_stats(table([], [0], [], []))[0] == {}


class TestUnknownIds:
    def test_validate_assignment_names_an_unknown_successor(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20))
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 99$"):
            validate_assignment({1: 99, 2: None}, tls)

    def test_validate_assignment_names_an_unknown_predecessor(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20))
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 7$"):
            validate_assignment({1: STOP, 7: STOP}, tls)

    def test_stitch_names_an_unknown_successor(self):
        tls = group_tracklets(run(1, 1, 10) + run(2, 12, 20))
        with pytest.raises(ValueError, match="^assignment names unknown tracklet 99$"):
            stitch({1: 99, 2: STOP}, tls)


class TestInvalidAssignments:
    TLS = group_tracklets(run(1, 1, 10) + run(2, 12, 20) + run(3, 22, 30))

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({1: 3, 2: 3, 3: STOP}, "successor 3 assigned to two tracklets"),
            ({1: STOP, 2: 1, 3: STOP}, "successor 1 does not start after tracklet 2 ends"),
        ],
    )
    def test_validate_assignment_rejects_a_broken_constraint(self, assignment, message):
        for check in (validate_assignment, stitch):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(assignment, self.TLS)

    @pytest.mark.parametrize(
        "assignment, message",
        [
            # a cycle: 3 takes 2, which 1 has taken
            ({1: 2, 2: 3, 3: 2}, "successor 2 assigned to two tracklets"),
            # a cycle back to the head, 1, which starts before 3 ends
            ({1: 2, 2: 3, 3: 1}, "successor 1 does not start after tracklet 3 ends"),
            # two chains that merge
            ({1: 3, 2: 3, 3: STOP}, "successor 3 assigned to two tracklets"),
        ],
    )
    def test_stitch_rejects_an_assignment_that_is_not_chains(self, assignment, message):
        # stitch raises the message of validate_assignment, its one check
        for check in (validate_assignment, stitch):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(assignment, self.TLS)


def test_stitch_rejects_a_chain_that_goes_back_in_time():
    # 2 starts at frame 5, before 1 ends, and 3 in the frame where 2 ends
    tls = group_tracklets(run(1, 1, 10) + run(2, 5, 20) + run(3, 20, 25))
    with pytest.raises(ValueError, match=r"^successor 2 does not start after tracklet 1 ends$"):
        stitch({1: 2, 2: STOP, 3: STOP}, tls)
    with pytest.raises(ValueError, match=r"^successor 3 does not start after tracklet 2 ends$"):
        stitch({1: STOP, 2: 3, 3: STOP}, tls)


def random_matching(rng, tracklets):
    """A random assignment that keeps both hard constraints, with its links in random order and some STOPs left out."""
    start, end = tracklets.ends.start_frame, tracklets.ends.end_frame
    pred, succ = np.nonzero(end[:, None] < start[None, :])
    ids = tracklets.ids.tolist()
    assignment, taken = {}, set()
    for k in rng.permutation(len(pred)).tolist():
        if rng.random() < 0.7 and ids[pred[k]] not in assignment and succ[k] not in taken:
            assignment[ids[pred[k]]] = ids[succ[k]]
            taken.add(succ[k])
    for tid in ids:
        if tid not in assignment and rng.random() < 0.5:
            assignment[tid] = STOP  # a tracklet with no key stops too
    keys = list(assignment)
    return {keys[k]: assignment[keys[k]] for k in rng.permutation(len(keys)).tolist()}


def test_stitch_keeps_every_row_once_on_valid_assignments_the_solver_did_not_make():
    # stitch walks chains without checks of its own: validate_assignment's rules leave no cycle and no tracklet on two chains
    rng = np.random.default_rng(61)
    links = 0
    for _ in range(150):
        grouped = random_tracklet_set(rng, int(rng.integers(1, 25)))
        # runs in random id order, so that positions and ids differ
        perm = rng.permutation(len(grouped))
        sizes = np.diff(grouped.bounds)[perm]
        tls = Tracklets(grouped.rows.take(aranges(grouped.bounds[perm], sizes)))
        assignment = random_matching(rng, tls)
        validate_assignment(assignment, tls)
        out = stitch(assignment, tls)
        linked = [cand for cand in assignment.values() if cand is not STOP]
        links += len(linked)
        heads = sorted(set(tls.ids.tolist()) - set(linked))
        assert out.ids.tolist() == list(range(1, len(heads) + 1))
        for traj, head in zip(out, heads):
            chain, tid = [], head
            while tid is not STOP:
                chain.append(tid)
                tid = assignment.get(tid, STOP)
            rows = DetectionTable.concat([tls[int(np.flatnonzero(tls.ids == tid)[0])].detections for tid in chain])
            assert traj.detections == rows.relabeled(traj.id)
            assert (np.diff(traj.detections.frame) > 0).all()
        assert len(out.rows) == len(tls.rows)
    assert links > 500
