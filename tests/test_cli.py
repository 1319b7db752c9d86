from pathlib import Path

import pytest

from trackstitch.cli import main
from trackstitch.mot_io import load_tracks


SCENARIO = """
scene.num_objects = 6
scene.num_frames = 150
scene.fps = 30
scene.width = 1280
scene.height = 720
scene.seed = 3
corrupt.random_cuts = 2
corrupt.gap_min = 1
corrupt.gap_max = 2
corrupt.seed = 4
"""


def write_scenario(tmp_path) -> Path:
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


def run_synth(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out_dir = tmp_path / "seq"
    assert main(["synth", str(scenario), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


def test_synth_writes_all_files(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    for name in ("gt.txt", "tracker.txt", "seqinfo.ini", "corruption_log.tsv"):
        assert (out_dir / name).exists(), name
    assert "frameRate=30" in (out_dir / "seqinfo.ini").read_text()


def test_refine_with_seqinfo(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    refined = tmp_path / "refined.txt"
    code = main(
        [
            "refine",
            str(out_dir / "tracker.txt"),
            str(refined),
            "--seqinfo",
            str(out_dir / "seqinfo.ini"),
            "--no-cutter",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "tracklets in: 18" in output
    assert "trajectories out: 6" in output
    assert refined.exists()
    ids = {d.track_id for d in load_tracks(refined)}
    assert len(ids) == 6


def test_refine_with_flags_and_dump(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    refined = tmp_path / "refined.txt"
    dump = tmp_path / "candidates.tsv"
    code = main(
        [
            "refine",
            str(out_dir / "tracker.txt"),
            str(refined),
            "--fps", "30", "--width", "1280", "--height", "720",
            "--no-cutter", "--no-interp",
            "--dump-candidates", str(dump),
        ]
    )
    assert code == 0
    assert dump.read_text().startswith("predecessor\tcandidate")


def test_refine_requires_meta(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    code = main(["refine", str(out_dir / "tracker.txt"), str(tmp_path / "x.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_refine_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "out.txt"
    code = main(["refine", str(empty), str(out), "--fps", "30", "--width", "100", "--height", "100"])
    assert code == 0
    assert out.read_text() == ""
    assert "tracklets in: 0" in capsys.readouterr().out


def test_refine_parse_error_no_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,1,0,0,10,10,1,-1,-1,-1\n1,2,nonsense\n")
    out = tmp_path / "out.txt"
    code = main(["refine", str(bad), str(out), "--fps", "30", "--width", "100", "--height", "100"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["61,3,inf,20,30,40,1,-1,-1,-1", "61,3,10,20,nan,40,1,-1,-1,-1", "61,3,10,20,30,40,-inf"])
def test_refine_non_finite_value_is_a_line_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,1,0,0,10,10,1,-1,-1,-1\n2,1,1,0,10,10,1,-1,-1,-1\n" + line + "\n")
    out = tmp_path / "out.txt"
    code = main(["refine", str(bad), str(out), "--fps", "30", "--width", "100", "--height", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


def test_eval_gt_against_itself(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    code = main(["eval", str(out_dir / "gt.txt"), str(out_dir / "gt.txt"), "--seq-name", "demo"])
    assert code == 0
    output = capsys.readouterr().out
    assert "MOTA: 1.000000" in output
    assert output.strip().endswith("demo,1.000000,1.000000,0,0,0")


def test_eval_corrupted_scores_below_one(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    code = main(["eval", str(out_dir / "gt.txt"), str(out_dir / "tracker.txt")])
    assert code == 0
    output = capsys.readouterr().out
    idf1_line = next(line for line in output.splitlines() if line.startswith("IDF1:"))
    assert float(idf1_line.split(":")[1]) < 1.0


def test_refine_improves_idf1_over_corrupted(tmp_path, capsys):
    out_dir = run_synth(tmp_path, capsys)
    refined = tmp_path / "refined.txt"
    main(["refine", str(out_dir / "tracker.txt"), str(refined), "--seqinfo", str(out_dir / "seqinfo.ini"), "--no-cutter"])
    capsys.readouterr()

    def idf1_of(pred):
        main(["eval", str(out_dir / "gt.txt"), str(pred)])
        output = capsys.readouterr().out
        return float(next(l for l in output.splitlines() if l.startswith("IDF1:")).split(":")[1])

    assert idf1_of(refined) > idf1_of(out_dir / "tracker.txt")


def test_unknown_scenario_key(tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("scene.num_objects = 2\nscene.num_frames = 10\nbogus.key = 1\n")
    code = main(["synth", str(scenario), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_refine_duplicate_frame_id_leaves_no_dump(tmp_path, capsys):
    bad = tmp_path / "dup.txt"
    bad.write_text("1,1,0,0,10,10,1,-1,-1,-1\n1,1,5,5,10,10,1,-1,-1,-1\n")
    out = tmp_path / "out.txt"
    dump = tmp_path / "candidates.tsv"
    code = main(
        [
            "refine", str(bad), str(out),
            "--fps", "30", "--width", "100", "--height", "100",
            "--dump-candidates", str(dump),
        ]
    )
    assert code == 1
    assert "duplicated" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dup.txt"]


@pytest.mark.parametrize("threshold", ["0", "1.5"])
def test_eval_rejects_iou_threshold_outside_unit_interval(tmp_path, capsys, threshold):
    out_dir = run_synth(tmp_path, capsys)
    gt = str(out_dir / "gt.txt")
    assert main(["eval", gt, gt, "--iou-thresh", threshold]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: iou_threshold must lie in (0, 1]")
    assert captured.out == ""


THREE_ROWS = "1,1,0,0,10,10,1,-1,-1,-1\n2,1,1,0,10,10,1,-1,-1,-1\n5,2,4,0,10,10,1,-1,-1,-1\n"


def assert_one_line_error(tmp_path, capsys, argv, expected):
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {expected}\n"
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "out.txt.tmp").exists()


@pytest.mark.parametrize("fps", ["nan", "inf"])
def test_refine_rejects_non_finite_fps_flag(tmp_path, capsys, fps):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--fps", fps, "--width", "100", "--height", "100"]
    assert_one_line_error(tmp_path, capsys, argv, f"fps must be finite and positive, got {fps}")


@pytest.mark.parametrize(
    "line, expected",
    [
        ("frameRate=nan", "line 2: bad value for frameRate: 'nan'"),
        ("frameRate=inf", "line 2: bad value for frameRate: 'inf'"),
        ("imWidth=inf", "line 2: bad value for imWidth: 'inf'"),
        ("imWidth=1920.7", "line 2: bad value for imWidth: '1920.7'"),
        ("seqLength=1.5", "line 2: bad value for seqLength: '1.5'"),
    ],
)
def test_refine_rejects_bad_seqinfo_values(tmp_path, capsys, line, expected):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    fields = dict(kv.split("=") for kv in ["frameRate=30", "imWidth=100", "imHeight=100", "seqLength=10"])
    key, value = line.split("=")
    fields[key] = value
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("[Sequence]\n" + f"{line}\n" + "".join(f"{k}={v}\n" for k, v in fields.items() if k != key))
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]
    assert_one_line_error(tmp_path, capsys, argv, expected)


def test_refine_accepts_integral_seqinfo_spellings(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("frameRate=30.0\nimWidth=100.0\nimHeight=1e2\nseqLength=10.0\n")
    assert main(["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]) == 0
    assert "links formed: 1" in capsys.readouterr().out
