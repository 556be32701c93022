"""The config gate: every value is refused by name or held in its echoed form.

However an `EngineConfig` is built, it holds each float rounded to the six
decimals the trace header echoes, so a replay that rebuilds the config
from the header runs on exactly the same parameters.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import scenario_path
from gridmind.canonical import dumps, parse_json
from gridmind.cli import main
from gridmind.config import ConfigError, EngineConfig

FIELDS = {f.name: f.type for f in dataclasses.fields(EngineConfig)}

VALUES = st.one_of(
    st.integers(-10, 100),
    st.integers(),
    # subnormal up to the largest double, both infinities and NaN
    st.floats(),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10, 100).map(str),
    st.text(max_size=8),
)


def _echo_rebuilds(config: EngineConfig) -> EngineConfig:
    return EngineConfig().with_overrides(parse_json(dumps(config.to_echo())))


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(FIELDS)), VALUES, max_size=6))
def test_overrides_are_refused_by_name_or_held_as_their_echo_rebuilds_them(overrides):
    try:
        config = EngineConfig().with_overrides(overrides)
    except ConfigError as exc:
        assert any(str(exc).startswith(f"bad value for {key}: {value!r}") for key, value in overrides.items())
        return
    assert list(config.to_echo().items()) == sorted(dataclasses.asdict(config).items())
    assert _echo_rebuilds(config) == config
    for name, kind in FIELDS.items():
        assert type(getattr(config, name)).__name__ == kind


def test_every_way_in_holds_the_echoed_form():
    assert EngineConfig().weight_temporal == 0.333333
    assert EngineConfig(near_distance=2.0000004).near_distance == 2.0
    assert EngineConfig().with_overrides({"near_distance": "1.4999996"}).near_distance == 1.5


def test_a_config_cannot_change_after_the_gate():
    with pytest.raises(dataclasses.FrozenInstanceError):
        EngineConfig().near_distance = -3.0  # type: ignore[misc]


def test_unknown_key_is_refused_by_name():
    with pytest.raises(ConfigError, match="^unknown config key: nearness$"):
        EngineConfig().with_overrides({"nearness": 2})


# fields a fetch run reads, each over a range that takes it to its bounds
RUN_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "near_distance": st.floats(0.0, 6.0),
        "collision_epsilon": st.floats(1e-6, 4.0),
        "attention_threshold": st.floats(0.0, 1.0),
        "weight_temporal": st.floats(0.0, 1.0),
        "weight_spatial": st.floats(0.0, 1.0),
        "reweight_delta": st.floats(0.0, 0.5),
        "prediction_decay": st.floats(0.0, 1.0),
        "mismatch_distance": st.floats(1e-6, 4.0),
        "severity_stale": st.floats(0.0, 1.0),
        "wm_decay": st.floats(0.0, 1.0),
        "wm_capacity": st.integers(1, 80),
        "window_size": st.integers(1, 16),
        "stale_ttl": st.integers(0, 60),
    },
)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=RUN_OVERRIDES)
def test_a_run_under_an_accepted_config_replays_equal(tmp_path, capsys, overrides):
    try:
        EngineConfig().with_overrides(overrides)
    except ConfigError:
        assume(False)
    config, trace = tmp_path / "cfg.json", tmp_path / "run.trace"
    config.write_text(json.dumps(overrides))
    assert main(["run", scenario_path("fetch_close"), "--config", str(config), "--trace", str(trace)]) in (0, 2)
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out
