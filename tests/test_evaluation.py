import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import trackstitch.evaluation as evaluation_module
import trackstitch.tracklets as tracklets_module
from trackstitch.evaluation import (
    FrameMatching,
    SequenceScores,
    clear_frame_matchings,
    evaluate_sequence,
    format_report,
    idf1,
    report_row,
)
from trackstitch.mot_io import Detection
from trackstitch.tracklets import iou_matrix


def track(tid, frames, x0=0.0, step=12.0, y0=0.0):
    return [Detection(f, tid, x0 + step * (f - frames[0]), y0, 10.0, 10.0, 1.0) for f in frames]


def relabel(dets, mapping):
    return [Detection(d.frame, mapping.get(d.track_id, d.track_id), d.x, d.y, d.w, d.h, d.conf) for d in dets]


GT = track(1, range(1, 11)) + track(2, range(1, 11), y0=100.0)


def test_perfect_prediction_scores_one():
    assert evaluate_sequence(GT, GT).mota == 1.0
    assert idf1(GT, GT) == 1.0


def test_empty_prediction():
    assert evaluate_sequence(GT, []).mota == 0.0
    assert idf1(GT, []) == 0.0


def test_empty_ground_truth_is_an_error():
    with pytest.raises(ValueError):
        evaluate_sequence([], GT)
    with pytest.raises(ValueError):
        idf1([], GT)


def test_one_id_switch_costs_one():
    gt = track(1, range(1, 11))
    pred = [Detection(d.frame, 1 if d.frame <= 5 else 2, d.x, d.y, d.w, d.h, d.conf) for d in gt]
    assert evaluate_sequence(gt, pred).mota == pytest.approx(0.9, abs=1e-12)


def test_idf1_half_split():
    gt = track(1, range(1, 11))
    pred = [Detection(d.frame, 1 if d.frame <= 5 else 2, d.x, d.y, d.w, d.h, d.conf) for d in gt]
    assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)


def test_idf1_invariant_under_renaming():
    pred = relabel(GT, {1: 77, 2: 13})
    assert idf1(GT, pred) == 1.0
    assert evaluate_sequence(GT, pred).mota == 1.0


def test_mota_counts_fp_and_fn():
    pred = GT + track(9, range(1, 6), y0=400.0)  # 5 spurious detections
    assert evaluate_sequence(GT, pred).mota == pytest.approx(1.0 - 5 / len(GT), abs=1e-12)
    missing = [d for d in GT if not (d.track_id == 2 and d.frame > 7)]  # 3 misses
    assert evaluate_sequence(GT, missing).mota == pytest.approx(1.0 - 3 / len(GT), abs=1e-12)


def test_deleting_detections_never_helps():
    rng = np.random.default_rng(41)
    full = evaluate_sequence(GT, GT).mota
    for _ in range(20):
        keep = [d for d in GT if rng.random() > 0.2]
        assert evaluate_sequence(GT, keep).mota <= full


def test_carry_over_beats_flicker():
    # two gt boxes drift close; persistent matching keeps the original pairing
    gt = track(1, range(1, 8), x0=0.0, step=2.0) + track(2, range(1, 8), x0=9.0, step=2.0)
    pred = relabel(gt, {1: 11, 2: 22})
    records = clear_frame_matchings(gt, pred)
    assert sum(r.id_switches for r in records) == 0
    assert evaluate_sequence(gt, pred).mota == 1.0


def test_frame_matching_records():
    gt = track(1, range(1, 4))
    records = clear_frame_matchings(gt, gt)
    assert [r.frame for r in records] == [1, 2, 3]
    assert all(r.matches == [(1, 1)] for r in records)
    assert all(r.false_positives == 0 and r.false_negatives == 0 for r in records)


def test_low_iou_does_not_match():
    gt = track(1, range(1, 4))
    shifted = [Detection(d.frame, 1, d.x + 8.0, d.y, d.w, d.h, d.conf) for d in gt]  # IoU ~ 0.11
    assert evaluate_sequence(gt, shifted).mota == pytest.approx(1.0 - 2 * len(gt) / len(gt), abs=1e-12)  # all FP + FN


def test_report_formats():
    scores = evaluate_sequence(GT, GT)
    text = format_report("demo", scores)
    assert "MOTA: 1.000000" in text and "IDF1: 1.000000" in text
    assert report_row("demo", scores) == "demo,1.000000,1.000000,0,0,0"


def test_rejects_duplicate_ids_in_frame():
    bad = GT + [Detection(1, 1, 50.0, 50.0, 10.0, 10.0, 1.0)]
    with pytest.raises(ValueError, match=r"^\(1,1\) duplicated: track 1 has two detections in frame 1$"):
        evaluate_sequence(bad, GT)


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_rejects_iou_threshold_outside_unit_interval(threshold):
    far = [Detection(d.frame, d.track_id, d.x + 700.0, d.y, d.w, d.h, d.conf) for d in GT]
    for metric in (clear_frame_matchings, idf1, evaluate_sequence):
        with pytest.raises(ValueError, match=r"iou_threshold must lie in \(0, 1\]"):
            metric(GT, far, threshold)


def test_iou_threshold_one_accepts_exact_boxes():
    assert evaluate_sequence(GT, GT, 1.0).mota == 1.0


def test_idf1_is_a_python_float():
    assert type(idf1(GT, GT)) is float
    assert type(idf1(GT, [])) is float
    assert type(evaluate_sequence(GT, relabel(GT, {1: 5})).idf1) is float


def test_rows_of_a_frame_are_read_in_id_order():
    # two gt and two predicted boxes coincide: every IoU is 1, so the matching
    # pairs them in id order, whatever order the rows were given in
    gt = [Detection(1, 2, 0.0, 0.0, 10.0, 10.0, 1.0), Detection(1, 1, 0.0, 0.0, 10.0, 10.0, 1.0)]
    pred = [Detection(1, 5, 0.0, 0.0, 10.0, 10.0, 1.0), Detection(1, 6, 0.0, 0.0, 10.0, 10.0, 1.0)]
    for g, p in ((gt, pred), (gt, pred[::-1]), (gt[::-1], pred), (gt[::-1], pred[::-1])):
        assert clear_frame_matchings(g, p)[0].matches == [(1, 5), (2, 6)]


def test_tables_score_like_lists():
    from trackstitch.mot_io import DetectionTable

    rng = np.random.default_rng(8)
    pred = [d for d in relabel(GT, {1: 3}) if rng.random() > 0.2] + track(9, range(2, 6), y0=50.0)
    rng.shuffle(pred)
    as_lists = evaluate_sequence(GT, pred)
    assert evaluate_sequence(DetectionTable.of(GT), DetectionTable.of(pred)) == as_lists
    assert clear_frame_matchings(DetectionTable.of(GT), DetectionTable.of(pred)) == clear_frame_matchings(GT, pred)


def test_duplicate_message_names_the_first_repeat_in_frame_order():
    bad = GT + [Detection(4, 2, 0.0, 0.0, 5.0, 5.0, 1.0), Detection(2, 1, 0.0, 0.0, 5.0, 5.0, 1.0)]
    for rows in (bad, bad[::-1]):
        with pytest.raises(ValueError, match=r"^\(1,2\) duplicated: track 1 has two detections in frame 2$"):
            idf1(rows, GT)


def test_a_frame_sorted_table_with_a_repeated_id_names_the_same_row():
    # a table in (frame, id) order but for one repeat takes the sort, and the
    # message names the repeat as an unsorted input would
    from trackstitch.mot_io import DetectionTable

    rows = sorted(GT + [Detection(4, 2, 0.0, 0.0, 5.0, 5.0, 1.0)], key=lambda d: (d.frame, d.track_id))
    with pytest.raises(ValueError, match=r"^\(2,4\) duplicated: track 2 has two detections in frame 4$"):
        evaluate_sequence(DetectionTable.of(rows), GT)
    with pytest.raises(ValueError, match=r"^\(2,4\) duplicated: track 2 has two detections in frame 4$"):
        evaluate_sequence(GT, rows)
    # of two repeats, the first in (frame, id) order
    rows = sorted(rows + [Detection(2, 1, 0.0, 0.0, 5.0, 5.0, 1.0)], key=lambda d: (d.frame, d.track_id))
    with pytest.raises(ValueError, match=r"^\(1,2\) duplicated: track 1 has two detections in frame 2$"):
        evaluate_sequence(GT, rows)


@pytest.mark.parametrize("seed", [1, 2])
def test_frame_sorted_and_object_ordered_inputs_score_alike(seed):
    # generate's tables hold each object's rows in turn, corrupt's are sorted
    # by (frame, id); the scores depend only on the set of rows
    from trackstitch import CorruptionConfig, ScenarioConfig, corrupt, generate

    gt, _ = generate(ScenarioConfig(num_objects=12, num_frames=150, crossings=4, seed=seed))
    pred, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.05, seed=seed))
    gt_sorted = gt.take(np.lexsort((gt.track_id, gt.frame)))
    pred_by_object = pred.take(np.argsort(pred.track_id, kind="stable"))
    assert not np.array_equal(gt_sorted.frame, gt.frame)
    for t in (0.3, 0.5, 0.9):
        expected = repr((evaluate_sequence(gt_sorted, pred, t), clear_frame_matchings(gt_sorted, pred, t)))
        for g, p in ((gt, pred), (gt_sorted, pred_by_object), (gt, pred_by_object)):
            assert repr((evaluate_sequence(g, p, t), clear_frame_matchings(g, p, t))) == expected


# --- the CLEAR runs and the shared hits against a per-frame reference ---

THRESHOLDS = [1.0, 0.5, 1e-9]


def _by_frame(gt, pred):
    """Each frame's gt and predicted rows, each side in id order."""
    frames = {}
    for side, rows in enumerate((gt, pred)):
        for d in sorted(rows, key=lambda d: d.track_id):
            frames.setdefault(d.frame, ([], []))[side].append(d)
    return {f: frames[f] for f in sorted(frames)}


def _iou(g, p):
    return iou_matrix([(d.x, d.y, d.w, d.h) for d in g], [(d.x, d.y, d.w, d.h) for d in p])


def reference_records(gt, pred, threshold):
    """CLEAR one frame at a time: keep the previous frame's pairs that still hit, then match the rest."""
    prev, last_match, out = {}, {}, []
    for frame, (g, p) in _by_frame(gt, pred).items():
        g_ids, p_ids = [d.track_id for d in g], [d.track_id for d in p]
        m = _iou(g, p)
        matches = {
            gid: pid for gid, pid in prev.items()
            if gid in g_ids and pid in p_ids and m[g_ids.index(gid), p_ids.index(pid)] >= threshold
        }
        rest_g = [r for r, gid in enumerate(g_ids) if gid not in matches]
        rest_p = [c for c, pid in enumerate(p_ids) if pid not in matches.values()]
        if rest_g and rest_p:
            rest = m[np.ix_(rest_g, rest_p)]
            # pairs under the threshold may not match; the most matches, then the largest summed IoU
            weight = np.where(rest >= threshold, rest + min(rest.shape) + 1, 0.0)
            for r, c in zip(*linear_sum_assignment(weight, maximize=True)):
                if rest[r, c] >= threshold:
                    matches[g_ids[rest_g[r]]] = p_ids[rest_p[c]]
        switches = sum(1 for gid, pid in matches.items() if last_match.get(gid, pid) != pid)
        last_match.update(matches)
        out.append(FrameMatching(frame, sorted(matches.items()), len(p) - len(matches), len(g) - len(matches), switches))
        prev = matches
    return out


def reference_scores(gt, pred, threshold):
    records = reference_records(gt, pred, threshold)
    fp = sum(r.false_positives for r in records)
    fn = sum(r.false_negatives for r in records)
    idsw = sum(r.id_switches for r in records)
    g_ids = sorted({d.track_id for d in gt})
    p_ids = sorted({d.track_id for d in pred})
    overlap = np.zeros((len(g_ids), len(p_ids)))
    for g, p in _by_frame(gt, pred).values():
        for r, c in zip(*np.nonzero(_iou(g, p) >= threshold)):
            overlap[g_ids.index(g[r].track_id), p_ids.index(p[c].track_id)] += 1
    idtp = overlap[linear_sum_assignment(-overlap)].sum() if pred else 0.0
    return SequenceScores(
        mota=1.0 - (fp + fn + idsw) / len(gt),
        idf1=float(2.0 * idtp / (len(gt) + len(pred))),
        false_positives=fp,
        false_negatives=fn,
        id_switches=idsw,
        num_gt=len(gt),
        num_pred=len(pred),
    )


def assert_like_reference(gt, pred, threshold):
    expected = reference_records(gt, pred, threshold)
    records = clear_frame_matchings(gt, pred, threshold)
    assert records == expected
    assert all(type(v) is int for r in records for v in (r.frame, *(i for pair in r.matches for i in pair)))
    scores = reference_scores(gt, pred, threshold)
    assert evaluate_sequence(gt, pred, threshold) == scores
    assert evaluate_sequence(gt, pred, threshold).mota == scores.mota
    assert idf1(gt, pred, threshold) == scores.idf1


def contest_every_frame(gt, pred):
    """One far gt and one far prediction in every frame, so that every frame takes the Hungarian step."""
    frames = sorted({d.frame for d in gt} | {d.frame for d in pred})
    far_gt = [Detection(f, 99, 1000.0, 0.0, 10.0, 10.0, 1.0) for f in frames]
    far_pred = [Detection(f, 99, 2000.0, 0.0, 10.0, 10.0, 1.0) for f in frames]
    return gt + far_gt, pred + far_pred


def random_scene(rng):
    """gt objects on a 2.5-pixel grid (equal x and identical boxes are common) with frame gaps,
    gt-only and prediction-only frames, predicted ids that change hands, shifted boxes and clutter."""
    frames = np.sort(rng.choice(np.arange(1, 30), int(rng.integers(1, 16)), replace=False)).tolist()
    n_ids = int(rng.integers(1, 5))
    x0 = rng.choice([0.0, 2.5, 5.0, 7.5], n_ids)
    vx = rng.choice([0.0, 0.0, 2.5, -2.5], n_ids)
    pids = list(range(11, 11 + n_ids + 2))
    gt, pred = [], []
    for f in frames:
        side = rng.choice(["both", "both", "both", "gt", "pred"])
        if rng.random() < 0.2:  # two predicted ids trade places
            a, b = rng.choice(len(pids), 2, replace=False)
            pids[a], pids[b] = pids[b], pids[a]
        for k in range(n_ids):
            if rng.random() < 0.2:
                continue
            x = float(x0[k] + vx[k] * f)
            if side != "pred":
                gt.append(Detection(f, k + 1, x, 0.0, 10.0, 10.0, 1.0))
            if side != "gt" and rng.random() < 0.85:
                dx = float(rng.choice([0.0, 0.0, 2.5, -2.5, 5.0]))
                pred.append(Detection(f, pids[k], x + dx, 0.0, 10.0, 10.0, 1.0))
        if side != "gt" and rng.random() < 0.3:
            pred.append(Detection(f, pids[n_ids], float(rng.choice([0.0, 2.5, 5.0, 40.0])), 0.0, 10.0, 10.0, 1.0))
    if not gt:
        gt = [Detection(frames[0], 1, 0.0, 0.0, 10.0, 10.0, 1.0)]
    if rng.random() < 0.1:
        pred = []
    if rng.random() < 0.25:
        gt, pred = contest_every_frame(gt, pred)
    # the scores must not depend on the input order, so shuffle it
    return [gt[i] for i in rng.permutation(len(gt))], [pred[i] for i in rng.permutation(len(pred))]


def test_clear_and_idf1_match_the_per_frame_reference():
    rng = np.random.default_rng(2008)
    for _ in range(200):
        gt, pred = random_scene(rng)
        for threshold in THRESHOLDS:
            assert_like_reference(gt, pred, threshold)


_row = st.tuples(
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([5.0, 10.0]),
)


def _detections(rows):
    return [Detection(f, tid, x, y, w, w, 1.0) for f, tid, x, y, w in rows]


@given(
    st.lists(_row, min_size=1, max_size=24, unique_by=lambda r: r[:2]),
    st.lists(_row, max_size=24, unique_by=lambda r: r[:2]),
    st.sampled_from(THRESHOLDS),
    st.booleans(),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_clear_and_idf1_match_the_per_frame_reference_property(gt_rows, pred_rows, threshold, contested):
    gt, pred = _detections(gt_rows), _detections(pred_rows)
    if contested:
        gt, pred = contest_every_frame(gt, pred)
    assert_like_reference(gt, pred, threshold)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_idf1_counts_only_the_ids_that_hit(threshold):
    far = track(3, range(1, 11), y0=500.0) + track(9, range(4, 8), y0=700.0)
    # predictions present, none of which hits
    assert_like_reference(GT, far, threshold)
    assert idf1(GT, far, threshold) == 0.0
    # gt id 1 and predicted ids 3 and 9, on either side of 5 in id order, never hit
    assert_like_reference(GT, far + track(5, range(1, 11), y0=100.0), threshold)
    assert idf1(GT, far + track(5, range(1, 11), y0=100.0), threshold) == 2 * 10 / (20 + 24)
    # a single hit
    assert_like_reference(GT, track(5, [3], x0=24.0), threshold)
    assert idf1(GT, track(5, [3], x0=24.0), threshold) == 2 / 21


def test_carry_over_spans_frames_that_no_row_holds():
    # frame 1 pairs 1-11 and 2-12; from frame 3 on the crossed pairs overlap
    # more, but the kept pairs still hit, so they stay; frame 2 holds no row
    # and does not break the carry-over
    def boxes(f, x1, x2, tids):
        return [Detection(f, tids[0], x1, 0.0, 10.0, 10.0, 1.0), Detection(f, tids[1], x2, 0.0, 10.0, 10.0, 1.0)]

    gt = [d for f in (1, 3, 4) for d in boxes(f, 0.0, 4.0, (1, 2))]
    pred = boxes(1, 0.0, 4.0, (11, 12)) + [d for f in (3, 4) for d in boxes(f, 3.0, 1.0, (11, 12))]
    records = clear_frame_matchings(gt, pred)
    assert [(r.frame, r.matches, r.id_switches) for r in records] == [(f, [(1, 11), (2, 12)], 0) for f in (1, 3, 4)]
    assert records == reference_records(gt, pred, 0.5)
    # a frame that holds only gt rows breaks it: frame 3 matches afresh
    gt_only = gt + boxes(2, 0.0, 4.0, (1, 2))
    assert [r.id_switches for r in clear_frame_matchings(gt_only, pred)] == [0, 0, 2, 0]
    assert clear_frame_matchings(gt_only, pred) == reference_records(gt_only, pred, 0.5)


def test_a_gt_id_back_under_its_old_prediction_is_no_switch():
    gt = track(1, [1, 2, 5, 6, 8, 9])
    pred = [Detection(d.frame, 7 if d.frame < 8 else 8, d.x, d.y, d.w, d.h, d.conf) for d in gt if d.frame != 5]
    assert [r.id_switches for r in clear_frame_matchings(gt, pred)] == [0, 0, 0, 0, 1, 0]
    assert clear_frame_matchings(gt, pred) == reference_records(gt, pred, 0.5)


def test_idf1_checks_the_ground_truth_before_an_empty_prediction():
    bad = GT + [Detection(1, 1, 50.0, 50.0, 10.0, 10.0, 1.0)]
    with pytest.raises(ValueError, match=r"^\(1,1\) duplicated: track 1 has two detections in frame 1$"):
        idf1(bad, [])


def test_matching_is_one_sweep_and_hungarian_only_where_a_frame_needs_it(monkeypatch):
    hungarian, ious = [], []
    solve, score = evaluation_module.linear_sum_assignment, tracklets_module.iou_pairs

    def counted_solve(*args, **kwargs):
        hungarian.append(None)
        return solve(*args, **kwargs)

    def counted_score(*args):
        ious.append(None)
        return score(*args)

    monkeypatch.setattr(evaluation_module, "linear_sum_assignment", counted_solve)
    monkeypatch.setattr(tracklets_module, "iou_pairs", counted_score)
    gt = track(1, range(1, 201), step=3.0) + track(2, range(1, 201), step=3.0, y0=100.0) + track(3, range(1, 201), step=0.0, y0=200.0)
    assert evaluate_sequence(gt, gt) == SequenceScores(1.0, 1.0, 0, 0, 0, 600, 600)
    # CLEAR's first frame and IDF1's global matching
    assert len(hungarian) == 2
    # one chunk of the sweep; the Hungarian step reads the sweep's IoUs
    assert len(ious) == 1


def test_hungarian_step_matches_only_pairs_at_the_threshold():
    # IoUs: gt 1 - pred 11 is 0.6, both crossed pairs 0.449, gt 2 - pred 12 is 0;
    # the crossed pairs sum higher but may not match, so 1-11 is the one match
    gt = [Detection(1, 1, 0.0, 0.0, 10.0, 10.0, 1.0), Detection(1, 2, 6.3, 0.0, 10.0, 10.0, 1.0)]
    pred = [Detection(1, 11, 2.5, 0.0, 10.0, 10.0, 1.0), Detection(1, 12, -3.8, 0.0, 10.0, 10.0, 1.0)]
    assert clear_frame_matchings(gt, pred) == [FrameMatching(1, [(1, 11)], 1, 1, 0)]
    assert clear_frame_matchings(gt, pred) == reference_records(gt, pred, 0.5)
    scores = evaluate_sequence(gt, pred)
    assert (scores.mota, scores.false_positives, scores.false_negatives) == (0.0, 1, 1)
    assert scores.idf1 == 0.5


@pytest.mark.parametrize("left", [11, 12])
def test_equal_ious_match_the_lower_id(left):
    # gt 1 at x = 0 lies between predictions at x = -2 and x = 2, both at IoU 2/3:
    # predicted id 11 wins on either side, and a one-row or one-column frame that
    # skips the Hungarian step must keep this rule
    def box(tid, x):
        return Detection(1, tid, x, 0.0, 10.0, 10.0, 1.0)

    gt, pred = [box(1, 0.0)], [box(left, -2.0), box(23 - left, 2.0)]
    assert clear_frame_matchings(gt, pred) == [FrameMatching(1, [(1, 11)], 1, 0, 0)] == reference_records(gt, pred, 0.5)
    # mirrored: prediction 11 lies between gt 1 and gt 2, and matches gt 1
    gt, pred = [box(left - 10, -2.0), box(13 - left, 2.0)], [box(11, 0.0)]
    assert clear_frame_matchings(gt, pred) == [FrameMatching(1, [(1, 11)], 0, 1, 0)] == reference_records(gt, pred, 0.5)


@pytest.mark.parametrize(
    "seed, source, digest",
    [
        (1, "tracker", "c47840edcf32226a8d79e446025eb6d2d2532e425e318d7ecffb5cc76828894a"),
        (1, "refined", "7e9658d4389e19fbaa8f601eab6c3f4594fa095097e7422863f9503bd1186af1"),
        (2, "tracker", "a806d5664603b3cbff8d6df91884aa68e6597a712a6342aaadd9abb576a979a0"),
        (2, "refined", "8b6f8245fa4c35c09981326d025c193725db58fb33f6c3e213c9afd6518e0dc1"),
    ],
)
def test_scores_and_matchings_are_pinned_on_crossing_scenes(seed, source, digest):
    # every bit of the scores and the per-frame records on a scene of the
    # bench's crossing workload, the tracker's output and its refined output
    from trackstitch import CorruptionConfig, ScenarioConfig, corrupt, generate, refine_detections

    gt, meta = generate(ScenarioConfig(num_objects=30, num_frames=600, crossings=10, seed=seed))
    pred, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, gap_frames=(1, 3), seed=seed))
    if source == "refined":
        pred, _ = refine_detections(pred, meta)
    text = repr([(evaluate_sequence(gt, pred, t), clear_frame_matchings(gt, pred, t)) for t in (0.3, 0.5, 0.9)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_import_and_refine_leave_scipy_unloaded():
    # scipy serves the evaluation's assignment steps only, and is imported on their first call
    probe = (
        "import sys\n"
        "import trackstitch as ts\n"
        "gt, meta = ts.generate(ts.ScenarioConfig(num_objects=4, num_frames=60, crossings=1, seed=1))\n"
        "tracker, _ = ts.corrupt(gt, ts.CorruptionConfig(random_cuts_per_track=1, swap_prob=1.0, seed=1))\n"
        "ts.refine_detections(ts.parse_tracks(ts.write_tracks(tracker)), meta)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "ts.evaluate_sequence(gt, tracker)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(evaluation_module.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
