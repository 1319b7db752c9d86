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


def test_refine_empty_input_dumps_the_candidate_header(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out, dump = tmp_path / "out.txt", tmp_path / "candidates.tsv"
    flags = ["--fps", "30", "--width", "100", "--height", "100", "--dump-candidates", str(dump)]
    assert main(["refine", str(empty), str(out), *flags]) == 0
    assert out.read_text() == ""
    assert dump.read_text() == "predecessor\tcandidate\ttd\tpiou\tpcd\tproduct\tmarginal\n"
    assert "candidate edges: 0\n" in capsys.readouterr().out


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
    assert err.startswith(f"error: {bad}: line 3: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


@pytest.mark.parametrize("side", [1e-200, 1e160, 1e-150])
def test_refine_rejects_a_box_without_extent_or_normal_area(tmp_path, capsys, side):
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(f"{f},{t},{70 + 30 * t},50,{side!r},{side!r},1,-1,-1,-1\n" for t in (1, 2) for f in range(1, 11)))
    out = tmp_path / "out.txt"
    code = main(["refine", str(bad), str(out), "--fps", "30", "--width", "100", "--height", "100"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: box ")
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


@pytest.mark.parametrize("role", ["input", "output"])
def test_refine_rejects_a_dump_naming_the_input_or_the_output(tmp_path, capsys, monkeypatch, role):
    out_dir = run_synth(tmp_path, capsys)
    files = {"input": out_dir / "tracker.txt", "output": out_dir / "refined.txt"}
    files["output"].write_text("an earlier output\n")
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    # the dump spells the same file relative to the working directory
    monkeypatch.chdir(out_dir)
    dump = files[role].name
    code = main(["refine", str(files["input"]), str(files["output"]), "--seqinfo", "seqinfo.ini", "--dump-candidates", dump])
    assert code == 1
    assert capsys.readouterr().err == f"error: --dump-candidates must not name the {role} file, got {dump}\n"
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


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
        ("imWidth=0", "line 2: bad value for imWidth: '0'"),
        ("imHeight=0.0", "line 2: bad value for imHeight: '0.0'"),
        ("seqLength=-5", "line 2: bad value for seqLength: '-5'"),
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
    assert_one_line_error(tmp_path, capsys, argv, f"{seqinfo}: {expected}")


def test_refine_rejects_sizes_too_large_for_float_arithmetic(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text(f"frameRate=30\nimWidth={10**400}\nimHeight=100\nseqLength=10\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]
    assert_one_line_error(tmp_path, capsys, argv, f"{seqinfo}: line 2: bad value for imWidth: '{10**400}'")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--fps", "30", "--width", str(10**200), "--height", "100"]
    assert_one_line_error(tmp_path, capsys, argv, f"the image diagonal must be finite, got a {10**200} x 100 image")
    # from a seqinfo file, where no one key is at fault, the error names the file
    seqinfo.write_text("frameRate=30\nimWidth=1e200\nimHeight=1e200\nseqLength=10\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]
    side = int(1e200)
    assert_one_line_error(tmp_path, capsys, argv, f"seqinfo file {seqinfo}: the image diagonal must be finite, got a {side} x {side} image")


@pytest.mark.parametrize("flag, value", [("--fps", "30"), ("--width", "100"), ("--height", "100")])
def test_refine_rejects_seqinfo_with_size_flags_before_reading_a_file(tmp_path, capsys, flag, value):
    # neither file exists: the conflict is reported before either is opened
    argv = ["refine", str(tmp_path / "tracks.txt"), str(tmp_path / "out.txt"), "--seqinfo", str(tmp_path / "seqinfo.ini"), flag, value]
    assert_one_line_error(tmp_path, capsys, argv, "provide --seqinfo or --fps/--width/--height, not both")


def test_refine_cuts_tracks_with_ids_up_to_int64_max(tmp_path, capsys):
    # fresh fragment ids above 2**63 - 1 would wrap: the tracklets are numbered by rank instead, in the same order
    outputs = []
    for big in (2**63 - 1, 9):
        tracks = tmp_path / f"cross{big}.txt"
        tracks.write_text(
            "".join(f"{f},7,{3 * f},0,10,10,1,-1,-1,-1\n" for f in range(1, 31))
            + "".join(f"{f},{big},{90 - 3 * f},0,10,10,1,-1,-1,-1\n" for f in range(1, 31))
        )
        out = tmp_path / f"out{big}.txt"
        assert main(["refine", str(tracks), str(out), "--fps", "30", "--width", "1920", "--height", "1080"]) == 0
        assert "cuts made: 2" in capsys.readouterr().out
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_refine_accepts_integral_seqinfo_spellings(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("frameRate=30.0\nimWidth=100.0\nimHeight=1e2\nseqLength=10.0\n")
    assert main(["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]) == 0
    assert "links formed: 1" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "1.5"])
def test_synth_rejects_crossing_iou_outside_unit_interval(tmp_path, capsys, value):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO + f"corrupt.crossing_iou = {value}\n")
    assert main(["synth", str(scenario), "--out-dir", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {scenario}: crossing_iou must lie in (0, 1], got {float(value)}\n"
    assert captured.out == "" and not (tmp_path / "o").exists()


CROSSING_SCENARIO = """
scene.num_objects = 30
scene.num_frames = 600
scene.crossings = 10
scene.seed = 2
corrupt.swap_prob = 0.5
corrupt.fragment_prob = 0.5
corrupt.dropout = 0.02
corrupt.seed = 2
"""


def test_refine_with_the_angle_constraint_on_a_crossing_scenario(tmp_path, capsys):
    # in this run a domain loses the candidate that held nearly all of its
    # remaining mass, which once left the solver dividing by a total of 0
    scenario = tmp_path / "crossing.cfg"
    scenario.write_text(CROSSING_SCENARIO)
    seq = tmp_path / "seq"
    assert main(["synth", str(scenario), "--out-dir", str(seq)]) == 0
    config = tmp_path / "angle.cfg"
    config.write_text("ad.enabled = true\n")
    out = tmp_path / "out.txt"
    argv = ["refine", str(seq / "tracker.txt"), str(out), "--seqinfo", str(seq / "seqinfo.ini")]
    assert main(argv + ["--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
    assert len(load_tracks(out)) >= len(load_tracks(seq / "tracker.txt"))


@pytest.mark.parametrize(
    "line, expected",
    [
        ("td.t50 = nan", "td.t50 must be positive, got nan"),
        ("td.tend = nan", "td.tend must be positive, got nan"),
        ("piou.t0 = nan", "piou.t0 must lie below t50, got t0=nan >= t50=0.75"),
    ],
)
def test_refine_rejects_nan_thresholds_in_the_config(tmp_path, capsys, line, expected):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    config = tmp_path / "pipeline.cfg"
    config.write_text(line + "\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--fps", "30", "--width", "100", "--height", "100"]
    assert_one_line_error(tmp_path, capsys, argv + ["--config", str(config)], f"{config}: {expected}")


@pytest.mark.parametrize(
    "line, expected",
    [
        ("piou.t0 = 0.8", "piou.t0 must lie below t50, got t0=0.8 >= t50=0.75"),
        ("piou.t50 = 1", "piou.t50 must be below 1, got 1.0"),
        ("td.t50 = abc", "td.t50: expected a number, got 'abc'"),
        ("interp.max_gap = 1.5", "interp.max_gap: expected an integer, got '1.5'"),
        ("endpoints.window = six", "endpoints.window: expected an integer, got 'six'"),
        ("endpoints.window = 12", "endpoints.window must satisfy 2 <= endpoints.window < endpoints.min_len, got endpoints.window=12, endpoints.min_len=10"),
        ("endpoints.window = 1", "endpoints.window must satisfy 2 <= endpoints.window < endpoints.min_len, got endpoints.window=1, endpoints.min_len=10"),
        ("endpoints.min_len = 2", "endpoints.window must satisfy 2 <= endpoints.window < endpoints.min_len, got endpoints.window=6, endpoints.min_len=2"),
        ("cutter.t_tc = 1.5", "cutter.t_tc must lie in (0, 1], got 1.5"),
        ("cutter.t_tc = 0", "cutter.t_tc must lie in (0, 1], got 0.0"),
        ("interp.max_gap = 0", "interp.max_gap must be positive, got 0"),
        ("bounds.L = 0.7", "bounds.L must lie in (0, 0.5), got 0.7"),
        ("bounds.U = 0.2", "bounds.U must lie in (0.5, 1), got 0.2"),
        # the line error form of track and seqinfo files
        ("bogus line", "line 1: expected key = value, got 'bogus line'"),
        ("td.t50 = 0.5\ninterp.enabled = true\ntd.t50 = 0.9", "line 3: td.t50 given twice, first on line 1"),
    ],
)
def test_refine_config_errors_name_the_file_and_the_key(tmp_path, capsys, line, expected):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    config = tmp_path / "pipeline.cfg"
    config.write_text(line + "\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--fps", "30", "--width", "100", "--height", "100"]
    assert_one_line_error(tmp_path, capsys, argv + ["--config", str(config)], f"{config}: {expected}")


# one object at x = 10 * frame, tracked as id 1 on frames 1-12 and id 2 on frames 15-39
BROKEN_TRACK = "".join(f"{f},{1 if f <= 12 else 2},{10 * f},100,10,10,1,-1,-1,-1\n" for f in [*range(1, 13), *range(15, 40)])


@pytest.mark.parametrize("window, min_len", [*((window, 10) for window in range(2, 10)), (2, 3), (11, 12), (12, 13)])
def test_refine_links_a_broken_track_at_every_valid_window(tmp_path, capsys, window, min_len):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(BROKEN_TRACK)
    config = tmp_path / "pipeline.cfg"
    config.write_text(f"endpoints.window = {window}\nendpoints.min_len = {min_len}\n")
    out = tmp_path / "out.txt"
    argv = ["refine", str(tracks), str(out), "--fps", "30", "--width", "640", "--height", "480", "--config", str(config)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "links formed: 1\n" in captured.out and captured.err == ""
    refined = load_tracks(out)
    assert set(refined.track_id.tolist()) == {1} and len(refined) == 39


@pytest.mark.parametrize(
    "line, expected",
    [
        ("scene.num_objects = abc", "scene.num_objects: expected an integer, got 'abc'"),
        ("corrupt.gap_min = x", "corrupt.gap_min: expected an integer, got 'x'"),
        ("corrupt.dropout = lots", "corrupt.dropout: expected a number, got 'lots'"),
        ("scene.min_speed = 5", "speeds must be finite with 0 <= min_speed <= max_speed, got 5.0 and 1.5"),
        ("scene.turn_rate = nan", "turn_rate must be finite, got nan"),
        ("scene.crossings = -1", "crossings must lie in [0, 3] for 6 objects, got -1"),
        pytest.param(f"scene.width = {10**400}", f"img_width is too large for a float, got {10**400}", id="scene.width of 401 digits"),
    ],
)
def test_synth_scenario_errors_name_the_file(tmp_path, capsys, line, expected):
    scenario = tmp_path / "scenario.cfg"
    # the line takes the place of its key's line in SCENARIO, since a key may be given once
    key = line.split("=")[0]
    scenario.write_text("".join(f"{kept}\n" for kept in SCENARIO.splitlines() if not kept.startswith(key)) + line + "\n")
    assert main(["synth", str(scenario), "--out-dir", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {scenario}: {expected}\n"
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, expected",
    [
        (SCENARIO.replace("scene.num_objects = 6", "scene.num_objects = 0"), "{path}: need at least one object and one frame"),
        ("scene.num_frames = 10\n", "{path}: missing scene.num_objects"),
        ("scene.num_objects 3\n", "{path}: line 1: expected key = value, got 'scene.num_objects 3'"),
        ("scene.num_objects = 4\nscene.num_frames = 50\n# six\nscene.num_objects = 6\n", "{path}: line 4: scene.num_objects given twice, first on line 1"),
        # generate raises this one, after the file has been read
        (
            "scene.num_objects = 2\nscene.num_frames = 100\nscene.crossings = 1\nscene.min_speed = 60\nscene.max_speed = 60\n",
            "could not construct a crossing for objects 1 and 2",
        ),
    ],
)
def test_synth_errors_write_nothing(tmp_path, capsys, text, expected):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text)
    assert main(["synth", str(scenario), "--out-dir", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected.format(path=scenario)}\n"
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_refine_rejects_a_flag_that_is_not_a_boolean(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    config = tmp_path / "pipeline.cfg"
    config.write_text("cutter.enabled = maybe\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--fps", "30", "--width", "100", "--height", "100", "--config", str(config)]
    assert_one_line_error(tmp_path, capsys, argv, f"{config}: cutter.enabled: expected a boolean, got 'maybe'")


def test_refine_rejects_a_seqinfo_line_without_a_value(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("[Sequence]\nframeRate 30\nimWidth=100\nimHeight=100\nseqLength=10\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]
    assert_one_line_error(tmp_path, capsys, argv, f"{seqinfo}: line 2: expected key = value, got 'frameRate 30'")


def test_refine_rejects_a_seqinfo_key_given_twice(tmp_path, capsys):
    tracks = tmp_path / "tracks.txt"
    tracks.write_text(THREE_ROWS)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("[Sequence]\nframeRate=30\nimWidth=100\nimHeight=100\nseqLength=10\nframeRate=25\n")
    argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo)]
    assert_one_line_error(tmp_path, capsys, argv, f"{seqinfo}: line 6: frameRate given twice, first on line 2")


def test_eval_parse_errors_name_the_file(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt.write_text(THREE_ROWS)
    pred.write_text("1,1,10,20\n")
    assert main(["eval", str(gt), str(pred)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {pred}: line 1: expected at least 7 fields, got 4\n" and captured.out == ""


@pytest.mark.parametrize("kind", ["track", "seqinfo", "config", "scenario"])
def test_a_byte_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys, kind):
    tracks, seqinfo, config = tmp_path / "tracks.txt", tmp_path / "seqinfo.ini", tmp_path / "pipeline.cfg"
    tracks.write_text(THREE_ROWS)
    seqinfo.write_text("[Sequence]\nframeRate=30\nimWidth=100\nimHeight=100\nseqLength=10\n")
    config.write_text("cutter.t_tc = 0.5\ninterp.enabled = true\n")
    scenario = write_scenario(tmp_path)
    bad = {"track": tracks, "seqinfo": seqinfo, "config": config, "scenario": scenario}[kind]
    bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))  # at the start of line 2
    expected = f"{bad}: line 2: not UTF-8: byte 0xff (invalid start byte)"
    if kind == "scenario":
        assert main(["synth", str(scenario), "--out-dir", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {expected}\n" and captured.out == "" and not (tmp_path / "o").exists()
    else:
        argv = ["refine", str(tracks), str(tmp_path / "out.txt"), "--seqinfo", str(seqinfo), "--config", str(config)]
        assert_one_line_error(tmp_path, capsys, argv, expected)
        if kind == "track":
            assert main(["eval", str(tracks), str(tracks)]) == 1
            assert capsys.readouterr().err == f"error: {expected}\n"
