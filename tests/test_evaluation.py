import numpy as np
import pytest

from trackstitch.evaluation import (
    clear_frame_matchings,
    evaluate_sequence,
    format_report,
    idf1,
    mota,
    report_row,
)
from trackstitch.mot_io import Detection


def track(tid, frames, x0=0.0, step=12.0, y0=0.0):
    return [Detection(f, tid, x0 + step * (f - frames[0]), y0, 10.0, 10.0, 1.0) for f in frames]


def relabel(dets, mapping):
    return [Detection(d.frame, mapping.get(d.track_id, d.track_id), d.x, d.y, d.w, d.h, d.conf) for d in dets]


GT = track(1, range(1, 11)) + track(2, range(1, 11), y0=100.0)


def test_perfect_prediction_scores_one():
    assert mota(GT, GT) == 1.0
    assert idf1(GT, GT) == 1.0


def test_empty_prediction():
    assert mota(GT, []) == 0.0
    assert idf1(GT, []) == 0.0


def test_empty_ground_truth_is_an_error():
    with pytest.raises(ValueError):
        mota([], GT)
    with pytest.raises(ValueError):
        idf1([], GT)


def test_one_id_switch_costs_one():
    gt = track(1, range(1, 11))
    pred = [Detection(d.frame, 1 if d.frame <= 5 else 2, d.x, d.y, d.w, d.h, d.conf) for d in gt]
    assert mota(gt, pred) == pytest.approx(0.9, abs=1e-12)


def test_idf1_half_split():
    gt = track(1, range(1, 11))
    pred = [Detection(d.frame, 1 if d.frame <= 5 else 2, d.x, d.y, d.w, d.h, d.conf) for d in gt]
    assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)


def test_idf1_invariant_under_renaming():
    pred = relabel(GT, {1: 77, 2: 13})
    assert idf1(GT, pred) == 1.0
    assert mota(GT, pred) == 1.0


def test_mota_counts_fp_and_fn():
    pred = GT + track(9, range(1, 6), y0=400.0)  # 5 spurious detections
    assert mota(GT, pred) == pytest.approx(1.0 - 5 / len(GT), abs=1e-12)
    missing = [d for d in GT if not (d.track_id == 2 and d.frame > 7)]  # 3 misses
    assert mota(GT, missing) == pytest.approx(1.0 - 3 / len(GT), abs=1e-12)


def test_deleting_detections_never_helps():
    rng = np.random.default_rng(41)
    full = mota(GT, GT)
    for _ in range(20):
        keep = [d for d in GT if rng.random() > 0.2]
        assert mota(GT, keep) <= full


def test_carry_over_beats_flicker():
    # two gt boxes drift close; persistent matching keeps the original pairing
    gt = track(1, range(1, 8), x0=0.0, step=2.0) + track(2, range(1, 8), x0=9.0, step=2.0)
    pred = relabel(gt, {1: 11, 2: 22})
    records = clear_frame_matchings(gt, pred)
    assert sum(r.id_switches for r in records) == 0
    assert mota(gt, pred) == 1.0


def test_frame_matching_records():
    gt = track(1, range(1, 4))
    records = clear_frame_matchings(gt, gt)
    assert [r.frame for r in records] == [1, 2, 3]
    assert all(r.matches == [(1, 1)] for r in records)
    assert all(r.false_positives == 0 and r.false_negatives == 0 for r in records)


def test_low_iou_does_not_match():
    gt = track(1, range(1, 4))
    shifted = [Detection(d.frame, 1, d.x + 8.0, d.y, d.w, d.h, d.conf) for d in gt]  # IoU ~ 0.11
    assert mota(gt, shifted) == pytest.approx(1.0 - 2 * len(gt) / len(gt), abs=1e-12)  # all FP + FN


def test_report_formats():
    scores = evaluate_sequence(GT, GT)
    text = format_report("demo", scores)
    assert "MOTA: 1.000000" in text and "IDF1: 1.000000" in text
    assert report_row("demo", scores) == "demo,1.000000,1.000000,0,0,0"


def test_rejects_duplicate_ids_in_frame():
    bad = GT + [Detection(1, 1, 50.0, 50.0, 10.0, 10.0, 1.0)]
    with pytest.raises(ValueError, match="twice"):
        mota(bad, GT)


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_rejects_iou_threshold_outside_unit_interval(threshold):
    far = [Detection(d.frame, d.track_id, d.x + 700.0, d.y, d.w, d.h, d.conf) for d in GT]
    for metric in (clear_frame_matchings, idf1, mota, evaluate_sequence):
        with pytest.raises(ValueError, match=r"iou_threshold must lie in \(0, 1\]"):
            metric(GT, far, threshold)


def test_iou_threshold_one_accepts_exact_boxes():
    assert evaluate_sequence(GT, GT, 1.0).mota == 1.0


def test_idf1_is_a_python_float():
    assert type(idf1(GT, GT)) is float
    assert type(idf1(GT, [])) is float
    assert type(evaluate_sequence(GT, relabel(GT, {1: 5})).idf1) is float


def test_rows_of_a_frame_keep_their_input_order():
    # two gt and two predicted boxes coincide: every IoU is 1, so the matching
    # pairs them in the order the rows were given
    gt = [Detection(1, 2, 0.0, 0.0, 10.0, 10.0, 1.0), Detection(1, 1, 0.0, 0.0, 10.0, 10.0, 1.0)]
    pred = [Detection(1, 5, 0.0, 0.0, 10.0, 10.0, 1.0), Detection(1, 6, 0.0, 0.0, 10.0, 10.0, 1.0)]
    assert clear_frame_matchings(gt, pred)[0].matches == [(1, 6), (2, 5)]
    assert clear_frame_matchings(gt, pred[::-1])[0].matches == [(1, 5), (2, 6)]


def test_tables_score_like_lists():
    from trackstitch.mot_io import DetectionTable

    rng = np.random.default_rng(8)
    pred = [d for d in relabel(GT, {1: 3}) if rng.random() > 0.2] + track(9, range(2, 6), y0=50.0)
    rng.shuffle(pred)
    as_lists = evaluate_sequence(GT, pred)
    assert evaluate_sequence(DetectionTable.of(GT), DetectionTable.of(pred)) == as_lists
    assert clear_frame_matchings(DetectionTable.of(GT), DetectionTable.of(pred)) == clear_frame_matchings(GT, pred)


def test_duplicate_message_names_the_first_repeat_in_input_order():
    bad = GT + [Detection(4, 2, 0.0, 0.0, 5.0, 5.0, 1.0), Detection(2, 1, 0.0, 0.0, 5.0, 5.0, 1.0)]
    with pytest.raises(ValueError, match=r"^id 2 appears twice in frame 4$"):
        idf1(bad, GT)
