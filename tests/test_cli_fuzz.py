"""Fuzzing the CLI's input paths: bad input exits 0-3 and never raises."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import scenario_path
from gridmind.cli import main
from gridmind.config import EngineConfig

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
FETCH_CLOSE = Path(scenario_path("fetch_close")).read_bytes()
DIRECTIVES = ["version", "grid", "region", "agent", "entity", "fact", "at", "task", "config"]
TOKENS = st.one_of(
    st.sampled_from(["robot1", "ball1", "box1", "room", "set", "clear", "teleport",
                     "velocity", "fetch", "navigate", "on=box1", "flags=hot", "target=box1"]),
    st.integers(-3, 9).map(str),
    st.text(min_size=1, max_size=6),
)
# one extra scenario line, made of directive heads and plausible tokens
EXTRA_LINE = st.tuples(st.sampled_from(DIRECTIVES), st.lists(TOKENS, max_size=6)).map(
    lambda t: " ".join([t[0], *t[1]])
)


def _exit_code(argv: list[str], capsys) -> int:
    code = main(argv)
    capsys.readouterr()
    return code


@FUZZ
@given(data=st.one_of(st.binary(max_size=300), EXTRA_LINE.map(lambda line: FETCH_CLOSE + line.encode() + b"\n")))
def test_run_arbitrary_scenario_bytes(tmp_path, capsys, data):
    scn = tmp_path / "fuzz.scn"
    scn.write_bytes(data)
    argv = ["run", str(scn), "--trace", str(tmp_path / "fuzz.trace"), "--max-ticks", "60"]
    assert _exit_code(argv, capsys) in (0, 1, 2, 3)


@FUZZ
@given(data=st.binary(max_size=300))
def test_query_arbitrary_kb_bytes(tmp_path, capsys, data):
    kb = tmp_path / "fuzz.kb"
    kb.write_bytes(data)
    assert _exit_code(["query", str(kb), "isa(?x, ?y)"], capsys) in (0, 1, 2, 3)


@FUZZ
@given(at=st.integers(min_value=0), byte=st.integers(0, 255))
def test_replay_trace_with_one_byte_replaced(tmp_path, capsys, external_trace, at, byte):
    data = bytearray(external_trace)
    data[at % len(data)] = byte
    trace = tmp_path / "fuzz.trace"
    trace.write_bytes(bytes(data))
    assert _exit_code(["replay", str(trace)], capsys) in (0, 1, 2, 3)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12)
)


@FUZZ
@given(
    field=st.sampled_from([f.name for f in dataclasses.fields(EngineConfig)]),
    value=JSON_SCALARS,
)
def test_run_config_field_set_to_any_json_scalar(tmp_path, capsys, field, value):
    config = tmp_path / "fuzz.json"
    config.write_text(json.dumps({field: value}))
    argv = ["run", scenario_path("fetch_close"), "--config", str(config),
            "--trace", str(tmp_path / "fuzz.trace")]
    assert _exit_code(argv, capsys) in (0, 1, 2, 3)
