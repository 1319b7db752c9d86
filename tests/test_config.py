import re
from pathlib import Path

import numpy as np
import pytest

from trackstitch.config import (
    _PIPELINE_KEYS,
    PipelineConfig,
    format_pipeline_config,
    load_pipeline_config,
    load_scenario,
    save_pipeline_config,
)
from trackstitch.evaluation import evaluate_sequence
from trackstitch.mot_io import SequenceMeta
from trackstitch.pipeline import refine_detections
from trackstitch.scoring import ConstraintKind, ConstraintParams
from trackstitch.synth import CorruptionConfig, ScenarioConfig, ScenarioError, generate


def test_defaults_match_shipped_table():
    cfg = PipelineConfig()
    td = cfg.scores.params[ConstraintKind.TIME_DISTANCE]
    assert (td.enabled, td.t50, td.tend, td.t0) == (True, 1.0, 3.0, None)
    pcd = cfg.scores.params[ConstraintKind.PREDICTED_CENTER_DISTANCE]
    assert (pcd.enabled, pcd.t50, pcd.tend) == (True, 0.02, 2.0)
    piou = cfg.scores.params[ConstraintKind.PREDICTED_IOU]
    assert (piou.enabled, piou.t50, piou.tend) == (True, 0.25, 2.0)  # distance form of 0.75
    assert not cfg.scores.params[ConstraintKind.ANGLE_DIFFERENCE].enabled
    assert not cfg.scores.params[ConstraintKind.SPEED_NORM_DIFFERENCE].enabled
    assert cfg.scores.lower == 1e-6 and cfg.scores.upper == 1 - 1e-6
    assert cfg.cutter_enabled and cfg.cut_threshold == 0.5
    assert cfg.interp_enabled and cfg.max_gap_size == 42
    assert cfg.endpoint_window == 6 and cfg.endpoint_min_len == 10
    cfg.validate()


def test_round_trip_through_file(tmp_path):
    cfg = PipelineConfig()
    cfg.cutter_enabled = False
    cfg.scores.params[ConstraintKind.ANGLE_DIFFERENCE].enabled = True
    cfg.scores.params[ConstraintKind.TIME_DISTANCE].t0 = 6.0
    path = tmp_path / "pipeline.cfg"
    save_pipeline_config(cfg, path)
    back = load_pipeline_config(path)
    assert back == cfg


DEFAULT_FILE = """\
# trackstitch pipeline configuration
bounds.L = 1e-06
bounds.U = 0.999999
td.enabled = true
td.t50 = 1.0
td.tend = 3.0
td.t0 = none
ad.enabled = false
ad.t50 = 0.5
ad.tend = 1.5
ad.t0 = none
sd.enabled = false
sd.t50 = 0.01
sd.tend = 0.05
sd.t0 = none
piou.enabled = true
piou.t50 = 0.75
piou.tend = 2.0
piou.t0 = none
pcd.enabled = true
pcd.t50 = 0.02
pcd.tend = 2.0
pcd.t0 = none
cutter.enabled = true
cutter.t_tc = 0.5
interp.enabled = true
interp.max_gap = 42
endpoints.window = 6
endpoints.min_len = 10
"""


def test_default_file_is_pinned_byte_for_byte():
    assert format_pipeline_config(PipelineConfig()) == DEFAULT_FILE


def test_every_key_round_trips_through_a_file(tmp_path):
    cfg = PipelineConfig()
    cfg.scores.lower, cfg.scores.upper = 1e-5, 0.9999
    for params in cfg.scores.params.values():
        # halves and doubles of the defaults; predicted IOU's come back exactly from 1 - IOU
        params.enabled = not params.enabled
        params.t50, params.tend, params.t0 = params.t50 / 2, params.tend * 2, params.t50 * 3
    cfg.cutter_enabled, cfg.cut_threshold = False, 0.25
    cfg.interp_enabled, cfg.max_gap_size = False, 7
    cfg.endpoint_window, cfg.endpoint_min_len = 4, 12
    lines = format_pipeline_config(cfg).splitlines()
    default_lines = DEFAULT_FILE.splitlines()
    assert len(lines) == len(default_lines) == 29
    moved = [line for line, default in zip(lines[1:], default_lines[1:]) if line != default]
    assert len(moved) == 28  # every key off its default
    path = tmp_path / "pipeline.cfg"
    save_pipeline_config(cfg, path)
    back = load_pipeline_config(path)
    assert back == cfg
    assert format_pipeline_config(back) == path.read_text()


def test_readme_table_names_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Pipeline configuration", 1)[1].split("| --- | --- | --- |\n", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        key_cell, default_cell = row.split("|")[1:3]
        keys, defaults = re.findall(r"`([^`]*)`", key_cell), re.findall(r"`([^`]*)`", default_cell)
        assert len(keys) == len(defaults), row
        documented.update(zip(keys, defaults))
    written = dict(line.split(" = ") for line in DEFAULT_FILE.splitlines()[1:])
    assert documented == written


def test_piou_written_in_iou_form(tmp_path):
    path = tmp_path / "pipeline.cfg"
    save_pipeline_config(PipelineConfig(), path)
    text = path.read_text()
    assert "piou.t50 = 0.75" in text
    assert "td.t50 = 1.0" in text
    assert "piou.tend = 2.0" in text  # tend stays a raw distance


def test_piou_read_converts_to_distance(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("piou.t50 = 0.9\npiou.t0 = 0.1\n")
    cfg = load_pipeline_config(path)
    p = cfg.scores.params[ConstraintKind.PREDICTED_IOU]
    assert p.t50 == pytest.approx(0.1)
    assert p.t0 == pytest.approx(0.9)


def test_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("# comment\ninterp.max_gap = 7\ntd.enabled = false\n")
    cfg = load_pipeline_config(path)
    assert cfg.max_gap_size == 7
    assert not cfg.scores.params[ConstraintKind.TIME_DISTANCE].enabled
    assert cfg.cut_threshold == 0.5


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("td.t42 = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_pipeline_config(path)


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("td.t0 = 0.5\n")  # t0 <= t50
    with pytest.raises(ValueError, match="t0 must exceed t50"):
        load_pipeline_config(path)
    path.write_text("bounds.L = 0.7\n")
    with pytest.raises(ValueError, match="L must lie"):
        load_pipeline_config(path)


def test_a_lower_bound_whose_products_underflow_is_rejected(tmp_path):
    # five scores at a clamp of 1e-300 multiply to 0, and STOP's product may be such a product
    cfg = PipelineConfig()
    for params in cfg.scores.params.values():
        params.enabled = True
    cfg.scores.lower = 1e-300
    message = r"bounds.L\*\*5 must be a normal float with 5 constraints enabled, got bounds.L=1e-300$"
    with pytest.raises(ValueError, match="^" + message):
        cfg.validate()
    path = tmp_path / "pipeline.cfg"
    path.write_text("".join(f"{k.value}.enabled = true\n" for k in ConstraintKind) + "bounds.L = 1e-300\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_pipeline_config(path)
    # three constraints at 1e-100 keep a normal product
    path.write_text("bounds.L = 1e-100\n")
    assert load_pipeline_config(path).scores.lower == 1e-100


def test_format_is_a_flat_kv_file():
    text = format_pipeline_config(PipelineConfig())
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        assert "=" in line


def write_scenario(tmp_path, *lines):
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(("scene.num_objects = 2", "scene.num_frames = 10", *lines)) + "\n")
    return path


@pytest.mark.parametrize("value", ["0", "-0.2", "1.5", "nan"])
def test_scenario_rejects_crossing_iou_outside_unit_interval(tmp_path, value):
    path = write_scenario(tmp_path, f"corrupt.crossing_iou = {value}")
    with pytest.raises(ValueError, match=r"crossing_iou must lie in \(0, 1\], got "):
        load_scenario(path)
    _, corruption = load_scenario(write_scenario(tmp_path, "corrupt.crossing_iou = 1"))
    assert corruption.crossing_iou == 1.0


def test_scenario_gap_bounds(tmp_path):
    assert load_scenario(write_scenario(tmp_path))[1].gap_frames == (0, 0)
    assert load_scenario(write_scenario(tmp_path, "corrupt.gap_min = 2"))[1].gap_frames == (2, 2)
    assert load_scenario(write_scenario(tmp_path, "corrupt.gap_max = 3"))[1].gap_frames == (0, 3)
    assert load_scenario(write_scenario(tmp_path, "corrupt.gap_min = 1", "corrupt.gap_max = 3"))[1].gap_frames == (1, 3)
    # an explicit gap_max below gap_min is an error, not raised to gap_min
    with pytest.raises(ValueError, match=r"gap_frames must satisfy 0 <= lo <= hi, got \(3, 1\)"):
        load_scenario(write_scenario(tmp_path, "corrupt.gap_min = 3", "corrupt.gap_max = 1"))


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(max_gap_size=float("nan")), "interp.max_gap must be an integer, got nan"),
        (dict(max_gap_size=5.0), "interp.max_gap must be an integer, got 5.0"),
        (dict(endpoint_window=3.0), "endpoints.window must be an integer, got 3.0"),
        (dict(endpoint_min_len=10.0), "endpoints.min_len must be an integer, got 10.0"),
        (dict(max_gap_size=True), "interp.max_gap must be an integer, got True"),
        (dict(endpoint_window=True), "endpoints.window must be an integer, got True"),
    ],
)
def test_integer_settings_reject_other_values(settings, message):
    cfg = PipelineConfig(**settings)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg.validate()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refine_detections([], SequenceMeta(30.0, 100, 100, 1), cfg)
    PipelineConfig(max_gap_size=np.int64(5), endpoint_window=np.int64(3), endpoint_min_len=np.int64(10)).validate()


@pytest.mark.parametrize("window, min_len", [(12, 10), (1, 10), (6, 2), (10, 10)])
def test_endpoint_window_outside_the_rule_rejected(window, min_len):
    message = (
        "endpoints.window must satisfy 2 <= endpoints.window < endpoints.min_len,"
        f" got endpoints.window={window}, endpoints.min_len={min_len}"
    )
    cfg = PipelineConfig(endpoint_window=window, endpoint_min_len=min_len)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg.validate()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refine_detections([], SequenceMeta(30.0, 100, 100, 1), cfg)


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(interp_enabled="no"), "interp.enabled must be a boolean, got 'no'"),
        (dict(cutter_enabled=1), "cutter.enabled must be a boolean, got 1"),
        (dict(interp_enabled=None), "interp.enabled must be a boolean, got None"),
    ],
)
def test_flags_must_be_booleans(settings, message):
    cfg = PipelineConfig(**settings)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg.validate()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refine_detections([], SequenceMeta(30.0, 100, 100, 1), cfg)
    PipelineConfig(cutter_enabled=np.bool_(False), interp_enabled=np.bool_(True)).validate()


def pipeline_with(key, value):
    """The default pipeline config with the setting of config key ``key`` set to ``value``."""
    cfg = PipelineConfig()
    target, attr, _, _ = _PIPELINE_KEYS[key]
    setattr(target(cfg), attr, value)
    return cfg


# every number setting, by the name its message gives, and a call that checks it set to True
NUMBER_SETTINGS = {
    **{
        key: lambda key=key: refine_detections([], SequenceMeta(30.0, 100, 100, 1), pipeline_with(key, True))
        for key, (_, _, value_kind, _) in _PIPELINE_KEYS.items()
        if value_kind.startswith("number")
    },
    "crossing_iou": lambda: CorruptionConfig(crossing_iou=True).validate(),
    **{name: lambda name=name: CorruptionConfig(**{name: True}).validate() for name in ("fragment_prob", "swap_prob", "dropout")},
    **{
        name: lambda name=name: generate(ScenarioConfig(num_objects=2, num_frames=10, **{name: True}))
        for name in ("fps", "turn_rate", "min_speed", "max_speed")
    },
    "iou_threshold": lambda: evaluate_sequence([], [], True),
}


@pytest.mark.parametrize("name", NUMBER_SETTINGS)
def test_number_settings_reject_a_bool(name):
    # True == 1 lies in every range a threshold may take; a saved config would then write "True"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got True$"):
        NUMBER_SETTINGS[name]()


def test_save_rejects_an_invalid_config_as_loading_its_file_would(tmp_path):
    cfg = PipelineConfig(cut_threshold=2.0)
    path = tmp_path / "bad.cfg"
    with pytest.raises(ValueError) as saved:
        save_pipeline_config(cfg, path)
    # nothing was written, not even a temporary file
    assert list(tmp_path.iterdir()) == []
    path.write_text(format_pipeline_config(cfg), encoding="utf-8")
    with pytest.raises(ValueError) as loaded:
        load_pipeline_config(path)
    assert str(saved.value) == str(loaded.value) == f"{path}: cutter.t_tc must lie in (0, 1], got 2.0"


def test_constraint_flags_must_be_booleans():
    cfg = PipelineConfig()
    cfg.scores.params[ConstraintKind.TIME_DISTANCE].enabled = "yes"
    with pytest.raises(ValueError, match=r"^td\.enabled must be a boolean, got 'yes'$"):
        cfg.validate()
    with pytest.raises(ValueError, match=r"^enabled must be a boolean, got 0$"):
        ConstraintParams(0, 1.0, 3.0).validate()
    ConstraintParams(np.bool_(True), 1.0, 3.0).validate(ConstraintKind.TIME_DISTANCE)


def test_config_and_scenario_files_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeffcutter.t_tc = 0.7\ninterp.enabled = false\n", encoding="utf-8")
    cfg = load_pipeline_config(path)
    assert cfg.cut_threshold == 0.7 and cfg.interp_enabled is False
    path.write_text("\ufeffscene.num_objects = 2\nscene.num_frames = 10\n", encoding="utf-8")
    scenario, _ = load_scenario(path)
    assert (scenario.num_objects, scenario.num_frames) == (2, 10)


def test_piou_thresholds_reported_in_iou_form():
    with pytest.raises(ValueError, match=r"^piou\.t0 must lie below t50, got t0=0\.8 >= t50=0\.75$"):
        ConstraintParams(True, 0.25, 2.0, 1.0 - 0.8).validate(ConstraintKind.PREDICTED_IOU)
    # without a kind the thresholds are the distances themselves
    with pytest.raises(ValueError, match=r"^t0 must exceed t50, got t0=0\.2 <= t50=0\.25$"):
        ConstraintParams(True, 0.25, 2.0, 0.2).validate()


def test_scenario_with_speeds_out_of_order_names_the_file(tmp_path):
    path = write_scenario(tmp_path, "scene.min_speed = 5", "scene.max_speed = 1")
    message = f"{path}: speeds must be finite with 0 <= min_speed <= max_speed, got 5.0 and 1.0"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(path)


def test_scenario_with_negative_random_cuts_names_the_file_and_the_value(tmp_path):
    path = write_scenario(tmp_path, "corrupt.random_cuts = -1")
    message = f"{path}: random_cuts_per_track must be nonnegative, got -1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_scenario(path)


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("scene.fps = 0", ScenarioError, "fps must be finite and positive, got 0.0"),
        ("corrupt.seed = -3", ValueError, "seed must be nonnegative, got -3"),
    ],
)
def test_scenario_with_a_bad_frame_rate_or_seed_names_the_file(tmp_path, line, error, message):
    path = write_scenario(tmp_path, line)
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_scenario(path)
