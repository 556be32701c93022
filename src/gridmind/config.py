"""Engine configuration: every tunable default in one flat record.

Values can be overridden by a JSON config file, by `config` lines in a
scenario, or programmatically. The config is echoed into the trace header
so replays resolve to the exact same parameters.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


@dataclass
class EngineConfig:
    # perception / attention
    weight_temporal: float = 1.0 / 3.0
    weight_spatial: float = 1.0 / 3.0
    weight_conceptual: float = 1.0 / 3.0
    attention_threshold: float = 0.25
    near_distance: float = 2.0
    window_size: int = 12

    # reasoning
    markov_order: int = 1
    collision_epsilon: float = 1.0
    trajectory_horizon: int = 5
    chain_max_iterations: int = 100

    # metacognition
    prediction_threshold: float = 0.6
    mismatch_distance: float = 2.0
    stale_ttl: int = 50
    severity_action_failure: float = 1.0
    severity_contradiction: float = 0.8
    severity_temporal_cycle: float = 0.9
    severity_stale: float = 0.3
    reweight_delta: float = 0.1
    prediction_decay: float = 0.5
    weight_min: float = 0.1
    weight_max: float = 0.8

    # memory
    wm_capacity: int = 64
    wm_decay: float = 0.95
    consolidate_threshold: float = 0.5
    episode_k: int = 3
    ltm_retrieve_k: int = 5

    # decision loop
    replan_limit: int = 5
    planner_timeout: float = 30.0
    max_ticks: int = 500

    def weights(self) -> dict[str, float]:
        return {
            "temporal": self.weight_temporal,
            "spatial": self.weight_spatial,
            "conceptual": self.weight_conceptual,
        }

    def to_echo(self) -> dict[str, object]:
        """Config as a canonical dict (sorted keys) for the trace header."""
        raw = dataclasses.asdict(self)
        echo: dict[str, object] = {}
        for key in sorted(raw):
            value = raw[key]
            echo[key] = value
        return echo

    def with_overrides(self, overrides: dict[str, object]) -> "EngineConfig":
        fields = {f.name: f for f in dataclasses.fields(self)}
        updates: dict[str, object] = {}
        for key, value in overrides.items():
            if key not in fields:
                raise ConfigError(f"unknown config key: {key}")
            kind = fields[key].type
            try:
                if kind == "int":
                    updates[key] = int(value)  # type: ignore[call-overload]
                else:
                    updates[key] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        return dataclasses.replace(self, **updates)  # type: ignore[arg-type]


def load_config_file(path: str, base: EngineConfig | None = None) -> EngineConfig:
    base = base or EngineConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return base.with_overrides(data)
