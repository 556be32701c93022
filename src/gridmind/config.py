"""Engine configuration: every tunable default in one flat, frozen record.

Values can be overridden by a JSON config file, by `config` lines in a
scenario, or programmatically. Each way in holds every value as the trace
header echoes it (a float at six decimals), checked after rounding, so a
replay rebuilds exactly the parameters the run used.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .canonical import InputError, fmt_float, parse_json, read_text


class ConfigError(InputError):
    pass


_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
# so that three attention weights clamped to [weight_min, weight_max] can sum to 1
_WEIGHT_MIN = (lambda v: 0.0 < v <= 1.0 / 3.0, "must lie in (0, 1/3]")
_WEIGHT_MAX = (lambda v: 1.0 / 3.0 <= v <= 1.0, "must lie in [1/3, 1]")
# seconds; a socket or a deadline takes no negative or unbounded wait
_PLANNER_TIMEOUT = (lambda v: 0.0 < v <= 86400.0, "must lie in (0, 86400]")

# the range of each bounded field; every float must also be finite
BOUNDS = {
    "attention_threshold": _UNIT,  # attention scores lie in [0, 1]
    "near_distance": _NON_NEGATIVE,  # a negative one drops every Near fact
    "window_size": _AT_LEAST_ONE,
    "markov_order": _AT_LEAST_ONE,
    "trajectory_horizon": _AT_LEAST_ONE,
    "chain_max_iterations": _AT_LEAST_ONE,
    "wm_capacity": _AT_LEAST_ONE,
    "episode_k": _AT_LEAST_ONE,
    "ltm_retrieve_k": _AT_LEAST_ONE,
    "collision_epsilon": _POSITIVE,
    "mismatch_distance": _POSITIVE,  # at 0 every position prediction mismatches
    "stale_ttl": _NON_NEGATIVE,  # a negative one makes every WM item stale
    "severity_action_failure": _UNIT,
    "severity_contradiction": _UNIT,
    "severity_temporal_cycle": _UNIT,
    "severity_stale": _UNIT,
    "prediction_decay": _UNIT,
    "wm_decay": _UNIT,
    "weight_min": _WEIGHT_MIN,
    "weight_max": _WEIGHT_MAX,
    "replan_limit": _AT_LEAST_ONE,  # at 0 a run aborts with no decision cycle
    "planner_timeout": _PLANNER_TIMEOUT,
    "max_ticks": _AT_LEAST_ONE,  # below 1 a run aborts before its first tick
}


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        """The one gate, however the config was built: each field converted
        to its type, a float rounded to the six decimals the trace header
        echoes, then checked against `BOUNDS`; errors name the given value."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            check, rule = BOUNDS.get(field.name, (None, ""))
            try:
                if isinstance(value, bool):
                    raise ValueError("must be a number")
                if field.type == "int":
                    number = int(value)  # type: ignore[call-overload]
                    if isinstance(value, float) and number != value:
                        raise ValueError("must be a whole number")
                else:
                    number = float(value)  # type: ignore[arg-type]
                    if not math.isfinite(number):
                        raise ValueError("must be finite")
                    number = float(fmt_float(number))
                if check and not check(number):
                    raise ValueError(rule)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {field.name}: {value!r} ({exc})") from None
            object.__setattr__(self, field.name, number)

    def weights(self) -> dict[str, float]:
        return {
            "temporal": self.weight_temporal,
            "spatial": self.weight_spatial,
            "conceptual": self.weight_conceptual,
        }

    def to_echo(self) -> dict[str, object]:
        """Config as a canonical dict (sorted keys) for the trace header."""
        return {name: getattr(self, name) for name in _SORTED_FIELDS}

    def with_overrides(self, overrides: dict[str, object]) -> "EngineConfig":
        names = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in names:
                raise ConfigError(f"unknown config key: {key}")
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


# the field names in the order the trace header echoes them
_SORTED_FIELDS = tuple(sorted(field.name for field in dataclasses.fields(EngineConfig)))


def load_config_file(path: str) -> EngineConfig:
    text = read_text(path, ConfigError, "config file")
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise ConfigError(f"not valid JSON: {exc}", path=path) from exc
    if not isinstance(data, dict):
        raise ConfigError("must contain a JSON object", path=path)
    return EngineConfig().with_overrides(data)
