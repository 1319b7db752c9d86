"""Pipeline and scenario configuration in the settings file format of :func:`~trackstitch.mot_io.read_kv`.

The shipped defaults enable the time-distance, predicted-IOU and
predicted-center-distance constraints, the cutter at an overlap threshold of
0.5 and interpolation up to gaps of 41 missing frames. In the config file the
predicted-IOU ``t50``/``t0`` thresholds are written as IOU values (the familiar
form); internally they become the distance ``1 - IOU`` so every constraint
shares the same score machinery. ``tend`` values are always raw distances.
Scenario files (``scene.*`` and ``corrupt.*`` keys) configure ``synth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .mot_io import atomic_writer, check_count, check_flag, check_iou_threshold, check_window, read_kv
from .scoring import ConstraintKind, ScoreConfig, file_form
from .synth import CorruptionConfig, ScenarioConfig


@dataclass
class PipelineConfig:
    """Everything the refine pipeline needs: scores, cutter, interpolation, windows."""

    scores: ScoreConfig = field(default_factory=ScoreConfig)
    cutter_enabled: bool = True
    cut_threshold: float = 0.5
    interp_enabled: bool = True
    max_gap_size: int = 42
    endpoint_window: int = 6
    endpoint_min_len: int = 10

    def validate(self) -> None:
        self.scores.validate()
        check_flag(self.cutter_enabled, "cutter.enabled")
        check_flag(self.interp_enabled, "interp.enabled")
        check_iou_threshold(self.cut_threshold, "cutter.t_tc")
        check_count(self.max_gap_size, "interp.max_gap", 1)
        check_window(self.endpoint_window, self.endpoint_min_len, ("endpoints.window", "endpoints.min_len"))


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"{key}: expected a boolean, got {value!r}")


def _parse_number(value: str, key: str, cast: type = float) -> int | float:
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{key}: expected {'an integer' if cast is int else 'a number'}, got {value!r}") from None


# Every pipeline key once, in file order: the object it sets, that object's
# attribute, the kind of value, and the constraint whose file form a threshold
# takes (see scoring.file_form: predicted-IOU t50/t0 are written as IOU values).
_PIPELINE_KEYS = {
    "bounds.L": (lambda cfg: cfg.scores, "lower", "number", None),
    "bounds.U": (lambda cfg: cfg.scores, "upper", "number", None),
    **{
        f"{kind.value}.{attr}": (lambda cfg, kind=kind: cfg.scores.params[kind], attr, value_kind, form)
        for kind in ConstraintKind
        for attr, value_kind, form in (
            ("enabled", "flag", None),
            ("t50", "number", kind),
            ("tend", "number", None),
            ("t0", "number or none", kind),
        )
    },
    "cutter.enabled": (lambda cfg: cfg, "cutter_enabled", "flag", None),
    "cutter.t_tc": (lambda cfg: cfg, "cut_threshold", "number", None),
    "interp.enabled": (lambda cfg: cfg, "interp_enabled", "flag", None),
    "interp.max_gap": (lambda cfg: cfg, "max_gap_size", "integer", None),
    "endpoints.window": (lambda cfg: cfg, "endpoint_window", "integer", None),
    "endpoints.min_len": (lambda cfg: cfg, "endpoint_min_len", "integer", None),
}


def _parse_value(value: str, key: str, value_kind: str, form: ConstraintKind | None):
    if value_kind == "flag":
        return _parse_bool(value, key)
    if value_kind == "integer":
        return _parse_number(value, key, int)
    if value_kind == "number or none" and value.lower() == "none":
        return None
    return file_form(form, _parse_number(value, key))


def _format_value(value, value_kind: str, form: ConstraintKind | None) -> str:
    if value_kind == "flag":
        return "true" if value else "false"
    if value_kind == "integer":
        return f"{value}"
    return "none" if value is None else repr(file_form(form, value))


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Load a config file (see :func:`~trackstitch.mot_io.read_kv`) over the defaults; an unknown key or an invalid value is an error naming the file."""
    cfg = PipelineConfig()
    entries = read_kv(path)
    try:
        for key, (value, _) in entries.items():
            if key not in _PIPELINE_KEYS:
                raise ValueError(f"unknown key {key!r}")
            target, attr, value_kind, form = _PIPELINE_KEYS[key]
            setattr(target(cfg), attr, _parse_value(value, key, value_kind, form))
        cfg.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def format_pipeline_config(cfg: PipelineConfig) -> str:
    lines = ["# trackstitch pipeline configuration"]
    for key, (target, attr, value_kind, form) in _PIPELINE_KEYS.items():
        lines.append(f"{key} = {_format_value(getattr(target(cfg), attr), value_kind, form)}")
    return "\n".join(lines) + "\n"


def save_pipeline_config(cfg: PipelineConfig, path: str | Path) -> None:
    """Write ``cfg`` to ``path`` as a config file; an invalid config writes nothing and raises the error that loading its file would."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with atomic_writer(path) as f:
        f.write(format_pipeline_config(cfg))


# Every scenario key once: the config class it sets, that config's field and
# the type of its value. corrupt.gap_min and corrupt.gap_max are collected
# under their own names and become the two ends of gap_frames.
_SCENARIO_KEYS = {
    "scene.num_objects": (ScenarioConfig, "num_objects", int),
    "scene.num_frames": (ScenarioConfig, "num_frames", int),
    "scene.fps": (ScenarioConfig, "fps", float),
    "scene.width": (ScenarioConfig, "img_width", int),
    "scene.height": (ScenarioConfig, "img_height", int),
    "scene.crossings": (ScenarioConfig, "crossings", int),
    "scene.turn_rate": (ScenarioConfig, "turn_rate", float),
    "scene.min_speed": (ScenarioConfig, "min_speed", float),
    "scene.max_speed": (ScenarioConfig, "max_speed", float),
    "scene.seed": (ScenarioConfig, "seed", int),
    "corrupt.fragment_prob": (CorruptionConfig, "fragment_prob", float),
    "corrupt.swap_prob": (CorruptionConfig, "swap_prob", float),
    "corrupt.dropout": (CorruptionConfig, "dropout", float),
    "corrupt.random_cuts": (CorruptionConfig, "random_cuts_per_track", int),
    "corrupt.gap_min": (CorruptionConfig, "gap_min", int),
    "corrupt.gap_max": (CorruptionConfig, "gap_max", int),
    "corrupt.crossing_iou": (CorruptionConfig, "crossing_iou", float),
    "corrupt.seed": (CorruptionConfig, "seed", int),
}


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, CorruptionConfig]:
    """Read a scenario file (see :func:`~trackstitch.mot_io.read_kv`) into generation and corruption configs.

    ``corrupt.gap_min`` and ``corrupt.gap_max`` bound the gap deleted at each
    cut; without ``gap_max`` every gap is ``gap_min`` frames. Both configs are
    validated. An unknown or missing key, a value that does not parse or an
    invalid config raises ``ValueError`` naming the file (``ScenarioError``
    for an invalid scene, with ``SequenceMeta``'s message for a bad frame
    rate, canvas or frame count).
    """
    entries = read_kv(path)
    kwargs: dict[type, dict] = {ScenarioConfig: {}, CorruptionConfig: {}}
    try:
        for key, (value, _) in entries.items():
            if key not in _SCENARIO_KEYS:
                raise ValueError(f"unknown key {key!r}")
            config, name, cast = _SCENARIO_KEYS[key]
            kwargs[config][name] = _parse_number(value, key, cast)
        scene, corrupt = kwargs[ScenarioConfig], kwargs[CorruptionConfig]
        for required in ("num_objects", "num_frames"):
            if required not in scene:
                raise ValueError(f"missing scene.{required}")
        scenario = ScenarioConfig(**scene)
        scenario.validate()
        gap_min = corrupt.pop("gap_min", 0)
        corruption = CorruptionConfig(gap_frames=(gap_min, corrupt.pop("gap_max", gap_min)), **corrupt)
        corruption.validate()
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return scenario, corruption
