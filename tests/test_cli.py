"""Command-line interface: exit codes, query evaluation, config."""

from __future__ import annotations

import json

import pytest

from conftest import scenario_path
from gridmind.agent import data_root
from gridmind.cli import main


def test_run_success_exit_zero(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    code = main(["run", scenario_path("fetch_close"), "--trace", str(trace)])
    assert code == 0
    assert trace.exists()
    assert "success" in capsys.readouterr().out


def test_missing_scenario_exit_three(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_bad_scenario_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("grid 4 4\nagent robot1 0 0\nentity x1 9 9\n")
    assert main(["run", str(bad)]) == 3


def test_unknown_task_kind_exit_three(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("grid 4 4\nagent robot1 0 0\ntask juggle\n")
    assert main(["run", str(bad)]) == 3


def test_replay_exit_codes(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert main(["run", scenario_path("knockover"), "--trace", str(trace)]) == 0
    assert main(["replay", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    lines[2] = lines[2].replace('"wm":', '"wm_":', 1)
    trace.write_text("\n".join(lines) + "\n")
    # field renamed -> still JSON, diverges on recompute
    assert main(["replay", str(trace)]) == 1
    trace.write_text("not a trace\n")
    assert main(["replay", str(trace)]) == 3


def test_query_left_of_on_shipped_kb(capsys):
    kb = str(data_root().joinpath("kbs", "vase_room.kb"))
    code = main(["query", kb, "LeftOf(vase1, ?x)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x=bed1"


def test_query_near_not_inferred(capsys):
    kb = str(data_root().joinpath("kbs", "vase_room.kb"))
    code = main(["query", kb, "Near(vase1, window1)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == ""


def test_query_before_closure(tmp_path, capsys):
    kb = tmp_path / "events.kb"
    kb.write_text(
        "ev1|Before|ev2|1.000000|0|asserted\nev2|Before|ev3|1.000000|0|asserted\n"
    )
    code = main(["query", str(kb), "Before(ev1, ?x)"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["x=ev2", "x=ev3"]


def test_query_empty_kb(tmp_path, capsys):
    kb = tmp_path / "empty.kb"
    kb.write_text("")
    assert main(["query", str(kb), "Near(a, ?x)"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_query_parse_error_exit_three(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text("this is not a fact line\n")
    assert main(["query", str(kb), "Near(a, ?x)"]) == 3


def test_config_file_and_scenario_overrides(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_ticks": 1}))
    trace = tmp_path / "out.trace"
    # arrange cannot finish in one tick -> abort (exit 2)
    code = main([
        "run", scenario_path("arrange"), "--config", str(config),
        "--trace", str(trace),
    ])
    assert code == 2
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["config"]["max_ticks"] == 1


def test_unknown_config_key_exit_three(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"definitely_not_a_key": 1}))
    assert main(["run", scenario_path("fetch_close"), "--config", str(config)]) == 3


def test_config_env_var_override(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_ticks": 1}))
    monkeypatch.setenv("GRIDMIND_CONFIG", str(config))
    trace = tmp_path / "out.trace"
    code = main(["run", scenario_path("arrange"), "--trace", str(trace)])
    assert code == 2


def test_no_hazard_flag_recorded_in_header(tmp_path):
    trace = tmp_path / "out.trace"
    assert main([
        "run", scenario_path("waterleak"), "--no-hazard", "--trace", str(trace),
    ]) == 0
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["hazards_enabled"] is False


def test_ltm_snapshot_save_and_load(tmp_path):
    snapshot = tmp_path / "ltm.kb"
    trace = tmp_path / "out.trace"
    assert main([
        "run", scenario_path("fetch_close"), "--trace", str(trace),
        "--ltm-save", str(snapshot),
    ]) == 0
    lines = snapshot.read_text().splitlines()
    assert lines and all(line.count("|") == 5 for line in lines)
    assert main([
        "run", scenario_path("fetch_close"), "--trace", str(trace),
        "--ltm-load", str(snapshot),
    ]) == 0
    assert main(["replay", str(trace)]) == 0


def _seeded_vase_room_trace(tmp_path):
    """vase_room plus an asserted fact that contradicts the perceived layout,
    run once to save LTM and again seeded from it; the contradiction makes
    the seeded run retrieve from LTM, so its trace depends on the seed."""
    with open(scenario_path("vase_room"), encoding="utf-8") as fh:
        text = fh.read()
    scenario = tmp_path / "vase_room_ltm.scn"
    scenario.write_text(text + "fact bed1 LeftOf table1\n")
    snapshot = tmp_path / "ltm.kb"
    trace = tmp_path / "seeded.trace"
    assert main(["run", str(scenario), "--trace", str(tmp_path / "first.trace"),
                 "--ltm-save", str(snapshot)]) == 0
    assert main(["run", str(scenario), "--trace", str(trace),
                 "--ltm-load", str(snapshot)]) == 0
    return trace, snapshot


def test_ltm_seeded_trace_records_seed_and_replays(tmp_path, capsys):
    trace, snapshot = _seeded_vase_room_trace(tmp_path)
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["ltm"] == snapshot.read_text().splitlines()
    assert list(header)[-2:] == ["config", "ltm"]
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad_seed",
    ["fact lines", ["a|isa|b|1.000000|0|asserted", 7], ["not a fact line"]],
    ids=["not-a-list", "non-string-entry", "malformed-line"],
)
def test_bad_ltm_header_field_exit_three(tmp_path, capsys, bad_seed):
    trace, _ = _seeded_vase_room_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["ltm"] = bad_seed
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith("error: header field 'ltm'")


def test_unknown_planner_spec_exit_three():
    assert main(["run", scenario_path("fetch_close"), "--planner", "psychic"]) == 3
