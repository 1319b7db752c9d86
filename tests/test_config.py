import re

import numpy as np
import pytest

from trackstitch.config import (
    PipelineConfig,
    format_pipeline_config,
    load_pipeline_config,
    load_scenario,
    save_pipeline_config,
)
from trackstitch.mot_io import SequenceMeta
from trackstitch.pipeline import refine_detections
from trackstitch.scoring import ConstraintKind, ConstraintParams
from trackstitch.synth import ScenarioError


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
