"""External planner wire protocol: round trips and failure modes."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import episode_rows, scenario_path
from gridmind.agent import run_scenario
from gridmind.config import EngineConfig
from gridmind.decide import (
    PlannerError,
    SubprocessPlanner,
    TcpPlanner,
    formulate_query,
    interpret_task,
    parse_plan_response,
)
from gridmind.memory import WorkingMemory
from gridmind.world import load_scenario

STUB = str(Path(__file__).parent / "stub_planner.py")


def stub_argv(mode: str) -> list[str]:
    return [sys.executable, STUB, mode]


def _fetch_query():
    scenario = load_scenario(scenario_path("fetch_close"))
    task = interpret_task(scenario.tasks[0], scenario)
    return formulate_query(WorkingMemory(), task, [], [])


def _run_fetch_with(mode: str, timeout: float = 10.0):
    path = scenario_path("fetch_close")
    scenario = load_scenario(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    client = SubprocessPlanner(stub_argv(mode), timeout=timeout)

    def factory(runtime):
        return client.plan

    try:
        return run_scenario(
            scenario,
            EngineConfig(),
            seed=0,
            planner_factory=factory,
            planner_name="external",
            scenario_text=text,
        )
    finally:
        client.close()


class TestRoundTrip:
    def test_stub_fetch_plan_executes_to_success(self):
        result = _run_fetch_with("fetch")
        assert result.outcome == "success"
        episodes = result.task_runs[0].episodes
        assert len(episodes) == 1
        actions = [s["action"] for s in episodes[0].plan_steps]
        assert actions == ["PickUp", "PlaceOn"]
        assert result.runtime.world.entities["ball1"].on == "box1"

    def test_request_line_is_wire_canonical(self):
        query = _fetch_query()
        payload = json.loads(query.to_wire_line())
        assert list(payload) == ["version", "task", "hazards", "facts", "episodes", "actions"]
        assert payload["version"] == 1
        assert {a["name"] for a in payload["actions"]} == {
            "Move", "PickUp", "PlaceOn", "CutPower", "Mop", "FixLeak", "Wait",
        }


class TestFailureModes:
    def test_malformed_missing_steps(self):
        with pytest.raises(PlannerError) as exc:
            parse_plan_response('{"plan": "trust me"}')
        assert exc.value.code == "planner_malformed"
        assert exc.value.path == "/steps"

    def test_unknown_action_rejected_with_path(self):
        with pytest.raises(PlannerError) as exc:
            parse_plan_response('{"steps": [{"action": "Fly", "args": ["north"]}]}')
        assert exc.value.code == "planner_malformed"
        assert exc.value.path == "/steps/0/action"

    def test_bad_arity_rejected(self):
        with pytest.raises(PlannerError) as exc:
            parse_plan_response('{"steps": [{"action": "PickUp", "args": []}]}')
        assert exc.value.path == "/steps/0/args"

    def test_effect_confidence_out_of_range_rejected(self):
        effect = ["cup1", "isa", "cup", 1.2, 0]
        step = {"action": "PickUp", "args": ["cup1"], "effects": [effect]}
        with pytest.raises(PlannerError) as exc:
            parse_plan_response(json.dumps({"steps": [step]}))
        assert exc.value.code == "planner_malformed"
        assert exc.value.path == "/steps/0/effects/0"

    def test_error_response_surfaces_as_planner_error(self):
        with pytest.raises(PlannerError) as exc:
            parse_plan_response('{"error": "planner exploded"}')
        assert exc.value.code == "planner_error"

    def test_not_json_rejected(self):
        with pytest.raises(PlannerError) as exc:
            parse_plan_response("garbage")
        assert exc.value.code == "planner_malformed"

    def test_malformed_run_aborts_without_partial_execution(self):
        result = _run_fetch_with("malformed")
        assert result.outcome == "aborted"
        assert result.exit_code == 2
        # no plan was ever accepted, so no world tick was consumed
        assert result.runtime.world.tick == 0
        rows = result.runtime.rows
        assert all(not episode_rows(rows, e) for run in result.task_runs for e in run.episodes)

    def test_unknown_action_run_aborts_without_partial_execution(self):
        result = _run_fetch_with("unknown-action")
        assert result.outcome == "aborted"
        assert result.runtime.world.tick == 0

    def test_timeout_produces_planner_timeout(self):
        query = _fetch_query()
        client = SubprocessPlanner(stub_argv("timeout"), timeout=0.4)
        try:
            with pytest.raises(PlannerError) as exc:
                client.plan(query)
            assert exc.value.code == "planner_timeout"
        finally:
            client.close()

    def test_planner_stalled_mid_line_times_out(self):
        query = _fetch_query()
        client = SubprocessPlanner(stub_argv("partial"), timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(PlannerError) as exc:
                client.plan(query)
            elapsed = time.monotonic() - start
            assert exc.value.code == "planner_timeout"
            assert elapsed < 1.0
        finally:
            client.close()

    def test_late_answer_is_not_read_as_the_next_one(self):
        query = _fetch_query()
        # answers each request 0.8 s late, naming the request it answers
        late = (
            "import sys, time\n"
            "for n, _ in enumerate(sys.stdin, start=1):\n"
            "    time.sleep(0.8)\n"
            "    print('{\"error\": \"answer to request %d\"}' % n, flush=True)\n"
        )
        client = SubprocessPlanner([sys.executable, "-c", late], timeout=0.5)
        try:
            for _ in range(2):
                with pytest.raises(PlannerError) as exc:
                    client.plan(query)
                assert exc.value.code == "planner_timeout"
        finally:
            client.close()

    def test_response_that_is_not_utf8_is_malformed(self):
        query = _fetch_query()
        # reads the request, answers with an error text holding the byte 0xff
        answer = r"""import sys; input(); sys.stdout.buffer.write(b'{"error": "\xff"}')"""
        client = SubprocessPlanner([sys.executable, "-c", answer], timeout=5.0)
        try:
            with pytest.raises(PlannerError) as exc:
                client.plan(query)
            assert exc.value.code == "planner_malformed"
        finally:
            client.close()

    def test_timeout_anomaly_recorded_in_episode(self):
        result = _run_fetch_with("timeout", timeout=0.3)
        assert result.outcome == "aborted"
        episodes = [e for run in result.task_runs for e in run.episodes]
        assert episodes
        assert all(e.planner_error[0] == "planner_timeout" for e in episodes)
        assert not any(episode_rows(result.runtime.rows, e) for e in episodes)


class TestTcpTransport:
    def test_tcp_round_trip(self):
        plans = '{"steps": [{"action": "Wait", "args": [], "effects": []}]}\n'
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("rw", encoding="utf-8") as fh:
                fh.readline()
                fh.write(plans)
                fh.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        query = _fetch_query()
        client = TcpPlanner(host, port, timeout=5.0)
        try:
            plan = client.plan(query)
            assert [s.action.name for s in plan] == ["Wait"]
        finally:
            client.close()
            server.close()
        thread.join(timeout=5)

    def test_response_trickled_slowly_times_out(self):
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()
        stop = threading.Event()

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as fh:
                fh.readline()
                for byte in b'{"error": "slow"}\n':
                    if stop.wait(0.3):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        query = _fetch_query()
        client = TcpPlanner(host, port, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(PlannerError) as exc:
                client.plan(query)
            elapsed = time.monotonic() - start
            assert exc.value.code == "planner_timeout"
            assert elapsed < 1.0
        finally:
            client.close()
            stop.set()
            server.close()
        thread.join(timeout=5)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["steps", "action", "args", "effects", "error"]), inner, max_size=4),
    max_leaves=12,
)
STEP = st.fixed_dictionaries({
    "action": st.sampled_from(["PickUp", "Move", "Fly"]) | JSON,
    "args": st.lists(st.text(max_size=3), max_size=2) | JSON,
    "effects": st.lists(st.lists(JSON, min_size=5, max_size=5), max_size=2) | JSON,
})


@settings(max_examples=100)
@given(st.one_of(JSON, st.fixed_dictionaries({"steps": st.lists(STEP | JSON, max_size=3)})))
def test_any_json_response_parses_or_raises_planner_malformed_or_error(payload):
    try:
        parse_plan_response(json.dumps(payload))
    except PlannerError as exc:
        assert exc.code in ("planner_malformed", "planner_error")


# scalars a planner's JSON can hold, the huge and non-finite ones included
SCALARS = (
    st.none() | st.booleans() | st.text(max_size=6) | st.integers()
    | st.sampled_from([10**400, -10**400, 1e308, -1e308, float("inf"), float("-inf"), float("nan")])
    | st.floats()
)


@settings(max_examples=150)
@given(effect=st.lists(SCALARS, min_size=5, max_size=5), action=st.sampled_from(["Wait", "PickUp"]))
def test_effect_of_any_scalars_parses_or_raises_planner_malformed(effect, action):
    step = {"action": action, "args": [] if action == "Wait" else ["ball1"], "effects": [effect]}
    try:
        plan = parse_plan_response(json.dumps({"steps": [step]}))
    except PlannerError as exc:
        assert exc.code == "planner_malformed"
        assert exc.path == "/steps/0/effects/0"
    else:
        assert len(plan[0].effects) == 1


@pytest.mark.parametrize("tick_text", ["1e400", "Infinity", "-Infinity", "NaN"])
def test_effect_tick_that_is_not_an_int_raises_planner_malformed(tick_text):
    line = '{"steps": [{"action": "Wait", "args": [], "effects": [["a", "isa", "b", 1.0, %s]]}]}' % tick_text
    with pytest.raises(PlannerError) as exc:
        parse_plan_response(line)
    assert exc.value.code == "planner_malformed"
    assert exc.value.path == "/steps/0/effects/0"


@pytest.mark.parametrize("obj_text", ["true", "NaN", "Infinity", "-Infinity", '["b"]'])
def test_effect_object_that_is_no_literal_raises_planner_malformed(obj_text):
    line = '{"steps": [{"action": "Wait", "args": [], "effects": [["a", "isa", %s, 1.0, 0]]}]}' % obj_text
    with pytest.raises(PlannerError) as exc:
        parse_plan_response(line)
    assert exc.value.code == "planner_malformed"
    assert exc.value.path == "/steps/0/effects/0"


@pytest.mark.parametrize("line", ["[" * 100000, "1" * 5000], ids=["deeply-nested", "long-integer"])
def test_response_json_that_cannot_be_read_is_malformed(line):
    with pytest.raises(PlannerError) as exc:
        parse_plan_response(line)
    assert exc.value.code == "planner_malformed"
    assert exc.value.path == "/"


@settings(max_examples=200)
@given(st.text())
def test_any_response_text_parses_or_raises_planner_error(text):
    try:
        parse_plan_response(text)
    except PlannerError:
        pass
