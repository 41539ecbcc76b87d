"""Run configuration: defaults, JSON config files, flag overrides.

Precedence is flags > config file > built-in defaults.  The config file
is one JSON object using exactly the RunConfig field names; unknown keys
are an error so typos fail loudly instead of silently keeping a default.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .body_budget import WeightConfig
from .curiosity import CuriosityParams
from .trace_model import (
    DEFAULT_SCENE,
    ObjectClass,
    SceneBounds,
    is_finite_number,
    is_integer,
)
from .tracker import TrackerParams


class ConfigError(ValueError):
    """Unusable configuration (bad file, unknown key, invalid value)."""


# Each default below is read from the parameter type that owns it.
_WEIGHTS = WeightConfig()
_TRACKER = TrackerParams()
_CURIOSITY = CuriosityParams()


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline in one place.

    q, r and p0 are the filter's process noise, measurement noise and
    initial state variance.  impact_values names each class as the config
    file spells it; CuriosityParams checks the values.  promotion_threshold
    None means: keep the loaded KB's stored threshold (or 3 for a fresh KB).
    """

    alpha: float = _WEIGHTS.alpha
    beta: float = _WEIGHTS.beta
    gamma: float = _WEIGHTS.gamma
    assoc_gate: float = _TRACKER.assoc_gate
    jump_gate: float = _TRACKER.jump_gate
    q: float = _TRACKER.process_noise
    r: float = _TRACKER.measurement_noise
    p0: float = _TRACKER.initial_variance
    occlusion_coverage_min: float = _CURIOSITY.occlusion_coverage_min
    promotion_threshold: Optional[int] = None
    impact_values: Mapping[str, float] = field(
        default_factory=lambda: {cls.value: v for cls, v in _CURIOSITY.impact_values.items()}
    )
    sc_mode: str = _CURIOSITY.sc_mode
    scene_width: float = DEFAULT_SCENE.width
    scene_height: float = DEFAULT_SCENE.height
    kb_path: Optional[str] = None
    out_dir: str = "."
    seed: int = 0

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if not is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (is_integer(value) or (value is None and name == "promotion_threshold")):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.kb_path is not None and not isinstance(self.kb_path, str):
            raise ConfigError(f"kb_path must be a string or null, got {self.kb_path!r}")
        if not isinstance(self.impact_values, Mapping):
            raise ConfigError(f"impact_values must be an object, got {self.impact_values!r}")
        try:
            self.curiosity_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.promotion_threshold is not None and self.promotion_threshold < 1:
            raise ConfigError(
                f"promotion_threshold must be >= 1, got {self.promotion_threshold}"
            )

    # -- adapters into the module-level parameter types ---------------------

    def weights(self) -> WeightConfig:
        return WeightConfig(self.alpha, self.beta, self.gamma)

    def tracker_params(self) -> TrackerParams:
        return TrackerParams(
            assoc_gate=self.assoc_gate,
            jump_gate=self.jump_gate,
            process_noise=self.q,
            measurement_noise=self.r,
            initial_variance=self.p0,
        )

    def scene(self) -> SceneBounds:
        return SceneBounds(self.scene_width, self.scene_height)

    def curiosity_params(self) -> CuriosityParams:
        impact_values = {ObjectClass.from_name(n): v for n, v in self.impact_values.items()}
        if len(impact_values) != len(self.impact_values):  # class names ignore case
            raise ConfigError(f"impact_values names a class twice: {sorted(self.impact_values)}")
        return CuriosityParams(
            weights=self.weights(),
            tracker=self.tracker_params(),
            occlusion_coverage_min=self.occlusion_coverage_min,
            sc_mode=self.sc_mode,
            impact_values=impact_values,
            scene=self.scene(),
        )


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}

# Fields whose value must be an integer, not a float.
_INT_FIELDS = {"promotion_threshold", "seed"}
_FLOAT_FIELDS = {f.name for f in dataclasses.fields(RunConfig) if f.type == "float"}


def config_from_document(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a single JSON object")
    unknown = sorted(set(doc) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**doc)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_document(doc)


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    """New config with the non-None overrides applied (flag precedence)."""
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
