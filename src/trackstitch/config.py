"""Pipeline and scenario configuration in the flat key=value file format.

The shipped defaults enable the time-distance, predicted-IOU and
predicted-center-distance constraints, the cutter at an overlap threshold of
0.5 and interpolation up to gaps of 41 missing frames. In the config file the
predicted-IOU ``t50``/``t0`` thresholds are written as IOU values (the familiar
form); internally they become the distance ``1 - IOU`` so every constraint
shares the same score machinery. ``tend`` values are always raw distances.
Scenario files (``scene.*`` and ``corrupt.*`` keys) configure ``synth``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .mot_io import atomic_writer
from .scoring import ConstraintKind, ScoreConfig, file_form
from .synth import CorruptionConfig, ScenarioConfig
from .tracklets import check_window


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
        if not (0.0 < self.cut_threshold <= 1.0):
            raise ValueError(f"cutter.t_tc must lie in (0, 1], got {self.cut_threshold}")
        if not isinstance(self.max_gap_size, numbers.Integral):
            raise ValueError(f"interp.max_gap must be an integer, got {self.max_gap_size}")
        if self.max_gap_size < 1:
            raise ValueError(f"interp.max_gap must be positive, got {self.max_gap_size}")
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


def read_kv(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Load a config file over the defaults; an unknown key or an invalid value is an error naming the file."""
    cfg = PipelineConfig()
    values = read_kv(path)
    try:
        for key, value in values.items():
            _apply(cfg, key, value)
        cfg.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _apply(cfg: PipelineConfig, key: str, value: str) -> None:
    prefix, _, name = key.partition(".")
    kinds = {k.value: k for k in ConstraintKind}
    if prefix in kinds:
        kind = kinds[prefix]
        params = cfg.scores.params[kind]
        if name == "enabled":
            params.enabled = _parse_bool(value, key)
        elif name == "t50":
            params.t50 = file_form(kind, _parse_number(value, key))
        elif name == "tend":
            params.tend = _parse_number(value, key)
        elif name == "t0":
            params.t0 = None if value.lower() == "none" else file_form(kind, _parse_number(value, key))
        else:
            raise ValueError(f"unknown key {key!r}")
    elif key == "bounds.L":
        cfg.scores.lower = _parse_number(value, key)
    elif key == "bounds.U":
        cfg.scores.upper = _parse_number(value, key)
    elif key == "cutter.enabled":
        cfg.cutter_enabled = _parse_bool(value, key)
    elif key == "cutter.t_tc":
        cfg.cut_threshold = _parse_number(value, key)
    elif key == "interp.enabled":
        cfg.interp_enabled = _parse_bool(value, key)
    elif key == "interp.max_gap":
        cfg.max_gap_size = _parse_number(value, key, int)
    elif key == "endpoints.window":
        cfg.endpoint_window = _parse_number(value, key, int)
    elif key == "endpoints.min_len":
        cfg.endpoint_min_len = _parse_number(value, key, int)
    else:
        raise ValueError(f"unknown key {key!r}")


def format_pipeline_config(cfg: PipelineConfig) -> str:
    lines = [
        "# trackstitch pipeline configuration",
        f"bounds.L = {cfg.scores.lower!r}",
        f"bounds.U = {cfg.scores.upper!r}",
    ]
    for kind in ConstraintKind:
        p = cfg.scores.params[kind]
        key = kind.value
        lines.append(f"{key}.enabled = {'true' if p.enabled else 'false'}")
        lines.append(f"{key}.t50 = {file_form(kind, p.t50)!r}")
        lines.append(f"{key}.tend = {p.tend!r}")
        lines.append(f"{key}.t0 = {'none' if p.t0 is None else repr(file_form(kind, p.t0))}")
    lines += [
        f"cutter.enabled = {'true' if cfg.cutter_enabled else 'false'}",
        f"cutter.t_tc = {cfg.cut_threshold!r}",
        f"interp.enabled = {'true' if cfg.interp_enabled else 'false'}",
        f"interp.max_gap = {cfg.max_gap_size}",
        f"endpoints.window = {cfg.endpoint_window}",
        f"endpoints.min_len = {cfg.endpoint_min_len}",
    ]
    return "\n".join(lines) + "\n"


def save_pipeline_config(cfg: PipelineConfig, path: str | Path) -> None:
    with atomic_writer(path) as f:
        f.write(format_pipeline_config(cfg))


_SCENARIO_KEYS = {
    "scene.num_objects": ("num_objects", int),
    "scene.num_frames": ("num_frames", int),
    "scene.fps": ("fps", float),
    "scene.width": ("img_width", int),
    "scene.height": ("img_height", int),
    "scene.crossings": ("crossings", int),
    "scene.turn_rate": ("turn_rate", float),
    "scene.min_speed": ("min_speed", float),
    "scene.max_speed": ("max_speed", float),
    "scene.seed": ("seed", int),
}

_CORRUPTION_KEYS = {
    "corrupt.fragment_prob": ("fragment_prob", float),
    "corrupt.swap_prob": ("swap_prob", float),
    "corrupt.dropout": ("dropout", float),
    "corrupt.random_cuts": ("random_cuts_per_track", int),
    "corrupt.crossing_iou": ("crossing_iou", float),
    "corrupt.seed": ("seed", int),
}


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, CorruptionConfig]:
    """Read a scenario file into generation and corruption configs.

    ``corrupt.gap_min`` and ``corrupt.gap_max`` bound the gap deleted at each
    cut; without ``gap_max`` every gap is ``gap_min`` frames. Both configs are
    validated. An unknown or missing key, a value that does not parse or an
    invalid config raises ``ValueError`` naming the file (``ScenarioError``
    for an invalid scene).
    """
    values = read_kv(path)
    scene_kwargs = {}
    corrupt_kwargs = {}
    gap_lo, gap_hi = 0, None
    try:
        for key, value in values.items():
            if key in _SCENARIO_KEYS:
                name, cast = _SCENARIO_KEYS[key]
                scene_kwargs[name] = _parse_number(value, key, cast)
            elif key in _CORRUPTION_KEYS:
                name, cast = _CORRUPTION_KEYS[key]
                corrupt_kwargs[name] = _parse_number(value, key, cast)
            elif key == "corrupt.gap_min":
                gap_lo = _parse_number(value, key, int)
            elif key == "corrupt.gap_max":
                gap_hi = _parse_number(value, key, int)
            else:
                raise ValueError(f"unknown key {key!r}")
        for required in ("num_objects", "num_frames"):
            if required not in scene_kwargs:
                raise ValueError(f"missing scene.{required}")
        scenario = ScenarioConfig(**scene_kwargs)
        scenario.validate()
        corruption = CorruptionConfig(gap_frames=(gap_lo, gap_lo if gap_hi is None else gap_hi), **corrupt_kwargs)
        corruption.validate()
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return scenario, corruption
