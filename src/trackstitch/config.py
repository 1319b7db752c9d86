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

from dataclasses import dataclass, field
from pathlib import Path

from .mot_io import atomic_writer
from .scoring import ConstraintKind, ScoreConfig
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
        if not (0.0 < self.cut_threshold <= 1.0):
            raise ValueError(f"cutter threshold must lie in (0, 1], got {self.cut_threshold}")
        if self.max_gap_size < 1:
            raise ValueError(f"max gap size must be positive, got {self.max_gap_size}")
        if self.endpoint_window < 1 or self.endpoint_min_len < 2:
            raise ValueError("endpoint window must be >= 1 and min length >= 2")


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"{key}: expected a boolean, got {value!r}")


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


def _to_file_form(kind: ConstraintKind, threshold: float) -> float:
    return 1.0 - threshold if kind is ConstraintKind.PREDICTED_IOU else threshold


def _from_file_form(kind: ConstraintKind, value: float) -> float:
    return 1.0 - value if kind is ConstraintKind.PREDICTED_IOU else value


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Load a config file over the defaults; unknown keys are errors."""
    cfg = PipelineConfig()
    values = read_kv(path)
    for key, value in values.items():
        try:
            _apply(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    cfg.validate()
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
            params.t50 = _from_file_form(kind, float(value))
        elif name == "tend":
            params.tend = float(value)
        elif name == "t0":
            params.t0 = None if value.lower() == "none" else _from_file_form(kind, float(value))
        else:
            raise ValueError(f"unknown key {key!r}")
    elif key == "bounds.L":
        cfg.scores.lower = float(value)
    elif key == "bounds.U":
        cfg.scores.upper = float(value)
    elif key == "cutter.enabled":
        cfg.cutter_enabled = _parse_bool(value, key)
    elif key == "cutter.t_tc":
        cfg.cut_threshold = float(value)
    elif key == "interp.enabled":
        cfg.interp_enabled = _parse_bool(value, key)
    elif key == "interp.max_gap":
        cfg.max_gap_size = int(value)
    elif key == "endpoints.window":
        cfg.endpoint_window = int(value)
    elif key == "endpoints.min_len":
        cfg.endpoint_min_len = int(value)
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
        lines.append(f"{key}.t50 = {_to_file_form(kind, p.t50)!r}")
        lines.append(f"{key}.tend = {p.tend!r}")
        lines.append(f"{key}.t0 = {'none' if p.t0 is None else repr(_to_file_form(kind, p.t0))}")
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
    """Read a scenario file into generation and corruption configs."""
    values = read_kv(path)
    scene_kwargs = {}
    corrupt_kwargs = {}
    gap_lo = gap_hi = 0
    for key, value in values.items():
        if key in _SCENARIO_KEYS:
            name, cast = _SCENARIO_KEYS[key]
            scene_kwargs[name] = cast(value)
        elif key in _CORRUPTION_KEYS:
            name, cast = _CORRUPTION_KEYS[key]
            corrupt_kwargs[name] = cast(value)
        elif key == "corrupt.gap_min":
            gap_lo = int(value)
        elif key == "corrupt.gap_max":
            gap_hi = int(value)
        else:
            raise ValueError(f"{path}: unknown key {key!r}")
    for required in ("num_objects", "num_frames"):
        if required not in scene_kwargs:
            raise ValueError(f"{path}: missing scene.{required}")
    return (
        ScenarioConfig(**scene_kwargs),
        CorruptionConfig(gap_frames=(gap_lo, max(gap_lo, gap_hi)), **corrupt_kwargs),
    )
