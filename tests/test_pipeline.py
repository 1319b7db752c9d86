import numpy as np
import pytest

from trackstitch.config import PipelineConfig
from trackstitch.evaluation import evaluate_sequence
from trackstitch.interpolate import fill_gaps
from trackstitch.mot_io import Detection, DetectionTable, SequenceMeta
from trackstitch.pipeline import refine_detections
from trackstitch.scoring import ConstraintKind
from trackstitch.synth import CorruptionConfig, ScenarioConfig, corrupt, generate
from trackstitch.tracklets import Tracklets, cut_tracklets, group_tracklets

META = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=200)


def fragmented_sequence():
    gt, meta = generate(ScenarioConfig(num_objects=6, num_frames=200, seed=17))
    corrupted, log = corrupt(gt, CorruptionConfig(random_cuts_per_track=2, gap_frames=(1, 2), seed=18))
    return gt, corrupted, log, meta


def test_empty_input_gives_empty_output():
    out, summary = refine_detections([], META)
    assert out == []
    assert summary.tracklets_in == 0 and summary.trajectories_out == 0
    assert summary.detections_in == 0


def test_association_merges_fragments():
    gt, corrupted, log, meta = fragmented_sequence()
    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    out, summary = refine_detections(corrupted, meta, cfg)
    ids_in = {d.track_id for d in corrupted}
    ids_out = {d.track_id for d in out}
    assert len(ids_out) < len(ids_in)
    assert summary.tracklets_in == len(ids_in)
    assert summary.trajectories_out == len(ids_out)
    assert summary.links > 0


def test_interpolation_gated_by_flag():
    gt, corrupted, log, meta = fragmented_sequence()
    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    cfg.interp_enabled = False
    out, summary = refine_detections(corrupted, meta, cfg)
    assert summary.detections_interpolated == 0
    assert len(out) == len(corrupted)

    cfg.interp_enabled = True
    out2, summary2 = refine_detections(corrupted, meta, cfg)
    assert summary2.detections_interpolated > 0
    assert len(out2) == len(corrupted) + summary2.detections_interpolated


def test_all_stop_config_reproduces_input_tracklets():
    # a tiny t50 with a t0 just above it filters every real candidate
    gt, corrupted, log, meta = fragmented_sequence()
    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    cfg.interp_enabled = False
    td = cfg.scores.params[ConstraintKind.TIME_DISTANCE]
    td.t50 = 1e-9
    td.t0 = 2e-9
    out, summary = refine_detections(corrupted, meta, cfg)
    assert summary.links == 0
    assert summary.trajectories_out == summary.tracklets_in

    def partition(dets):
        groups = {}
        for d in dets:
            groups.setdefault(d.track_id, []).append((d.frame, d.x, d.y))
        return sorted(sorted(g) for g in groups.values())

    assert partition(out) == partition(corrupted)


def test_detection_content_preserved_modulo_ids_and_interp():
    gt, corrupted, log, meta = fragmented_sequence()
    cfg = PipelineConfig()
    cfg.interp_enabled = False
    out, _ = refine_detections(corrupted, meta, cfg)
    key = lambda d: (d.frame, d.x, d.y, d.w, d.h)
    assert sorted(map(key, out)) == sorted(map(key, corrupted))


def test_output_sorted_by_frame_then_id():
    gt, corrupted, log, meta = fragmented_sequence()
    out, _ = refine_detections(corrupted, meta, PipelineConfig())
    keys = [(d.frame, d.track_id) for d in out]
    assert keys == sorted(keys)


def test_candidate_dump_is_tsv(tmp_path):
    import io

    gt, corrupted, log, meta = fragmented_sequence()
    buffer = io.StringIO()
    refine_detections(corrupted, meta, PipelineConfig(), candidate_dump=buffer)
    lines = buffer.getvalue().splitlines()
    header = lines[0].split("\t")
    assert header[:2] == ["predecessor", "candidate"]
    assert header[-2:] == ["product", "marginal"]
    assert any(line.split("\t")[1] == "STOP" for line in lines[1:])


def test_summary_reports_candidate_edges_and_solver_effort():
    # tracklets 1: frames 1-5, 2: 7-9, 3: 8-12; admissible pairs (1, 2) and (1, 3)
    spans = ((1, range(1, 6)), (2, range(7, 10)), (3, range(8, 13)))
    dets = [Detection(f, tid, 10.0 * tid, 0.0, 10.0, 10.0, 1.0) for tid, frames in spans for f in frames]
    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    _, summary = refine_detections(dets, META, cfg)
    assert summary.candidate_edges == 2
    assert summary.solver_nodes == 1 + 3  # the root plus one bind per tracklet
    assert summary.solver_backtracks == 0
    text = summary.format()
    assert "candidate edges: 2\n" in text
    assert "solver nodes: 4\n" in text
    assert "solver backtracks: 0\n" in text


def test_summary_counts_match_the_tracklets_refined():
    gt, corrupted, log, meta = fragmented_sequence()
    cfg = PipelineConfig()
    _, summary = refine_detections(corrupted, meta, cfg)
    tracklets = cut_tracklets(
        group_tracklets(corrupted, cfg.endpoint_window, cfg.endpoint_min_len),
        cfg.cut_threshold,
        cfg.endpoint_window,
        cfg.endpoint_min_len,
    )
    assert summary.tracklets_associated == len(tracklets)
    ends = tracklets.ends
    assert summary.candidate_edges == np.count_nonzero(ends.end_frame[:, None] < ends.start_frame[None, :])
    assert summary.candidate_edges > 0
    assert summary.solver_nodes == 1 + len(tracklets)
    assert summary.solver_backtracks == 0


def test_parsed_tables_build_no_detection_objects(detections_built):
    from trackstitch.evaluation import evaluate_sequence
    from trackstitch.mot_io import DetectionTable, parse_tracks, write_tracks

    # crossings make the cutter cut; dropped frames make interpolation fill
    gt, meta = generate(ScenarioConfig(num_objects=8, num_frames=150, crossings=3, seed=1))
    corrupted, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, random_cuts_per_track=1, gap_frames=(1, 3), seed=1))
    tracker, truth = parse_tracks(write_tracks(corrupted)), parse_tracks(write_tracks(gt))
    before = [column.copy() for column in tracker.columns]
    del detections_built[:]

    out, summary = refine_detections(tracker, meta, PipelineConfig())
    assert not detections_built
    scores = evaluate_sequence(truth, out)
    assert not detections_built

    assert isinstance(out, DetectionTable) and out.x.dtype == np.float64
    assert summary.cuts_made > 0 and summary.detections_interpolated > 0 and scores.idf1 > 0.5
    # no layer wrote into the caller's columns
    assert all(np.array_equal(a, b) for a, b in zip(before, tracker.columns))
    assert out == refine_detections(list(tracker), meta, PipelineConfig())[0]


def test_refine_output_values_are_float64():
    dets = [Detection(f, 1, 5, 7, 10, 10, 1) for f in (1, 2, 4)]
    out, summary = refine_detections(dets, META)
    assert summary.detections_interpolated == 1
    assert out == [Detection(f, 1, 5.0, 7.0, 10.0, 10.0, 1.0) for f in (1, 2, 3, 4)]
    assert all(type(v) is float for d in out for v in (d.x, d.y, d.w, d.h, d.conf))


def test_parsed_tables_build_no_tracklet_or_domain_objects(monkeypatch):
    import trackstitch.tracklets as tracklets_module
    from trackstitch.associator import SuccessorVar
    from trackstitch.mot_io import parse_tracks, write_tracks
    from trackstitch.scoring import PairScores
    from trackstitch.tracklets import Tracklet

    gt, meta = generate(ScenarioConfig(num_objects=8, num_frames=150, crossings=3, seed=1))
    corrupted, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, random_cuts_per_track=1, gap_frames=(1, 3), seed=1))
    tracker = parse_tracks(write_tracks(corrupted))
    built, summaries = [], []

    def counting(function, log, entry):
        def counted(*args, **kwargs):
            log.append(entry(*args))
            return function(*args, **kwargs)

        return counted

    for cls in (Tracklet, SuccessorVar, PairScores):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__, built, lambda self, *_: type(self).__name__))
    # _endpoints(rows, bounds, ...) summarizes len(bounds) - 1 runs
    monkeypatch.setattr(
        tracklets_module, "_endpoints", counting(tracklets_module._endpoints, summaries, lambda rows, bounds, *_: len(bounds) - 1)
    )

    for cutter in (True, False):
        cfg = PipelineConfig()
        cfg.cutter_enabled = cutter
        del summaries[:]
        _, summary = refine_detections(tracker, meta, cfg)
        assert built == []
        # the endpoint columns are computed once, for the tracklets associated:
        # neither the grouped tracklets the cutter splits nor the trajectories pay for them
        assert summaries == [summary.tracklets_associated]
        assert summary.links > 0 and (summary.cuts_made > 0) == cutter


# track 7 holds two rows in frame 3
TWO_IN_FRAME_3 = DetectionTable.of([Detection(f, 7, x, 0.0, 10.0, 10.0, 1.0) for f, x in [(1, 0.0), (2, 1.0), (3, 2.0), (3, 40.0), (4, 3.0)]])
CLEAN = DetectionTable.of([Detection(f, 7, f - 1.0, 0.0, 10.0, 10.0, 1.0) for f in range(1, 5)])


@pytest.mark.parametrize(
    "entry",
    [
        lambda table: refine_detections(table, META),
        lambda table: evaluate_sequence(table, CLEAN),
        lambda table: evaluate_sequence(CLEAN, table),
        lambda table: corrupt(table, CorruptionConfig()),
        lambda table: fill_gaps(table, 5),
        lambda table: Tracklets(table),
    ],
    ids=["refine", "eval-gt", "eval-pred", "corrupt", "fill_gaps", "Tracklets"],
)
def test_every_entry_point_rejects_two_rows_of_a_track_in_one_frame(entry):
    with pytest.raises(ValueError, match=r"^\(7,3\) duplicated: track 7 has two detections in frame 3$"):
        entry(TWO_IN_FRAME_3)
