"""Command-line interface: exit codes, query evaluation, config."""

from __future__ import annotations

import json
import os
import shlex
import signal
import socket
import sys
from pathlib import Path

import pytest

from conftest import episode_rows, scenario_path, stub_planner_spec
from gridmind.agent import data_root
from gridmind.cli import main
from gridmind.trace import TraceError, replay


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


def test_query_composition_entry_outside_spatial_relations_applies(tmp_path, capsys):
    # a composition table entry is a rule like any other, whatever its relations
    kb = tmp_path / "parts.kb"
    kb.write_text("car|Contains|engine|1.000000|0|asserted\nengine|Contains|piston|0.5|0|asserted\n")
    table = tmp_path / "parts.txt"
    table.write_text("compose Contains Contains -> Contains\n")
    assert main(["query", str(kb), "Contains(car, ?x)", "--composition", str(table)]) == 0
    assert capsys.readouterr().out.splitlines() == ["x=engine", "x=piston"]


@pytest.mark.parametrize(
    "conclusion, message",
    [
        ("Near(5, ?y)", "subject 5 in Near is not a symbol"),
        ("Near(?y, nan)", "constant nan in Near is not a fact literal (cannot canonicalize non-finite float nan)"),
        ("size(?x, 1e400)", "constant inf in size is not a fact literal (cannot canonicalize non-finite float inf)"),
    ],
    ids=["number-subject", "nan-object", "overflowing-object"],
)
def test_query_rule_that_cannot_make_a_fact_exit_three(tmp_path, capsys, conclusion, message):
    rules = tmp_path / "r.txt"
    rules.write_text(f"rule r 1.0: LeftOf(?x, ?y) -> {conclusion}\n")
    kb = str(data_root().joinpath("kbs", "vase_room.kb"))
    assert main(["query", kb, "Near(?a, ?b)", "--rules", str(rules)]) == 3
    assert capsys.readouterr().err == f"error: {rules}:1: rule r: {message}\n"


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("Near(?a, nan)", "constant nan in Near is not a fact literal (cannot canonicalize non-finite float nan)"),
        ("size(?a, 1e400)", "constant inf in size is not a fact literal (cannot canonicalize non-finite float inf)"),
        ("LeftOf(5, ?x)", "subject 5 in LeftOf is not a symbol"),
    ],
    ids=["nan-object", "overflowing-object", "number-subject"],
)
def test_query_pattern_that_no_fact_can_match_exit_three(capsys, pattern, message):
    kb = str(data_root().joinpath("kbs", "vase_room.kb"))
    assert main(["query", kb, pattern]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: <pattern>: {message}\n"


def test_rule_that_binds_a_number_as_conclusion_subject_exit_three(tmp_path, capsys):
    # knockover-spill binds ?y to 5, the subject of has_state(?y, spilled)
    scenario = tmp_path / "spill.scn"
    scenario.write_text(
        Path(scenario_path("fetch_close")).read_text(encoding="utf-8")
        + "fact cup1 has_state knocked_over\nfact cup1 Contains 5\nfact cup1 isa cup\n"
    )
    trace = tmp_path / "spill.trace"
    assert main(["run", str(scenario), "--trace", str(trace)]) == 3
    assert capsys.readouterr().err == (
        "error: rule knockover-spill: conclusion subject ?y bound to non-symbol 5\n"
    )
    assert not trace.exists()


def test_query_whose_inference_stops_at_its_pass_cap_exit_three(tmp_path, capsys):
    # reach(n0, goal) takes 150 passes, one per link, past the rule file's
    # cap of 100; cut short there, the chain held reach(n60, goal) but not it
    kb = tmp_path / "chain.kb"
    kb.write_text("".join(f"n{i}|next|n{i + 1}|1.000000|0|asserted\n" for i in range(150))
                  + "n150|reach|goal|1.000000|0|asserted\n")
    rules = tmp_path / "reach.rules"
    rules.write_text("rule back 1.0: next(?x, ?y), reach(?y, goal) -> reach(?x, goal)\n")
    for pattern in ("reach(n0, goal)", "reach(n60, goal)"):
        assert main(["query", str(kb), pattern, "--rules", str(rules)]) == 3
        assert capsys.readouterr() == (
            "", "error: inference stopped at its cap of 100 passes, before a fixpoint was confirmed\n"
        )
    # 99 links take 99 passes, and one more finds nothing new: answered
    kb.write_text("".join(f"n{i}|next|n{i + 1}|1.000000|0|asserted\n" for i in range(99))
                  + "n99|reach|goal|1.000000|0|asserted\n")
    assert main(["query", str(kb), "reach(n0, goal)", "--rules", str(rules)]) == 0
    assert capsys.readouterr().out == "match\n"


@pytest.mark.parametrize("links, code, out", [(100, 0, "match\n"), (101, 3, "")])
def test_query_complete_on_its_last_allowed_pass_is_answered(tmp_path, capsys, links, code, out):
    # 100 links derive reach(n0, goal) on pass 100, the cap, and a further
    # pass would derive nothing: answered; 101 links need pass 101: refused
    kb = tmp_path / "chain.kb"
    kb.write_text("".join(f"n{i}|next|n{i + 1}|1.000000|0|asserted\n" for i in range(links))
                  + f"n{links}|reach|goal|1.000000|0|asserted\n")
    rules = tmp_path / "reach.rules"
    rules.write_text("rule back 1.0: next(?x, ?y), reach(?y, goal) -> reach(?x, goal)\n")
    assert main(["query", str(kb), "reach(n0, goal)", "--rules", str(rules)]) == code
    assert capsys.readouterr().out == out


def test_query_empty_kb(tmp_path, capsys):
    kb = tmp_path / "empty.kb"
    kb.write_text("")
    assert main(["query", str(kb), "Near(a, ?x)"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_query_parse_error_exit_three(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text("this is not a fact line\n")
    assert main(["query", str(kb), "Near(a, ?x)"]) == 3


@pytest.mark.parametrize(
    "line",
    ["a|isa|b|high|0|asserted\n", "a|isa|b|1.0|noon|asserted\n"],
    ids=["bad-confidence", "bad-tick"],
)
def test_query_non_numeric_field_exit_three(tmp_path, capsys, line):
    kb = tmp_path / "bad.kb"
    kb.write_text(line)
    assert main(["query", str(kb), "isa(?x, b)"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("option", ["--rules", "--composition"])
def test_query_missing_rule_file_exit_three(tmp_path, capsys, option):
    kb = tmp_path / "kb.kb"
    kb.write_text("")
    missing = tmp_path / "missing.txt"
    assert main(["query", str(kb), "Near(a, ?x)", option, str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: cannot read rule file: ")


def test_query_object_that_is_no_fact_token_exit_three(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text("a|isa|b c|1.0|0|asserted\n")
    assert main(["query", str(kb), "isa(?x, ?y)"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {kb}: invalid symbol token")


def test_query_confidence_out_of_range_exit_three(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text("a|isa|b|1.2|0|asserted\n")
    assert main(["query", str(kb), "isa(?x, b)"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "line",
    [
        "entity bo|x1 3 2",
        "region ro|om 0 0 4 4",
        "entity box1 3 2 color=re|d",
        "entity box1 3 2 flags=ho|t",
        "at 0 set robot1 ho|t",
        "fact zz|7 isa cup",
        "fact zz7 i|sa cup",
    ],
    ids=[
        "entity-id", "region-id", "attribute-value", "flag", "event-flag",
        "fact-subject", "fact-relation",
    ],
)
def test_scenario_token_that_is_no_fact_literal_exit_three(tmp_path, capsys, line):
    bad = tmp_path / "bad.scn"
    bad.write_text(f"grid 6 6\nagent robot1 0 0\n{line}\n")
    assert main(["run", str(bad), "--trace", str(tmp_path / "out.trace")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.scn:3:" in err


@pytest.mark.parametrize("obj", ["nan", "inf", "-inf"])
def test_scenario_fact_with_non_finite_object_exit_three(tmp_path, capsys, obj):
    bad = tmp_path / "bad.scn"
    bad.write_text(f"grid 6 6\nagent robot1 0 0\nfact zz7 size {obj}\n")
    assert main(["run", str(bad), "--trace", str(tmp_path / "out.trace")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.scn:3:" in err


@pytest.mark.parametrize("obj", ["nan", "inf", "-inf"])
def test_kb_line_with_non_finite_object_exit_three(tmp_path, capsys, obj):
    kb = tmp_path / "bad.kb"
    kb.write_text(f"zz7|size|{obj}|1.000000|0|asserted\n")
    assert main(["query", str(kb), "size(zz7, ?x)"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    trace = tmp_path / "out.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(trace), "--ltm-load", str(kb)]) == 3
    assert capsys.readouterr().err.startswith("error: malformed LTM snapshot: ")


@pytest.mark.parametrize(
    "text, message",
    [("[" * 100000, "nested too deeply"), ('{"max_ticks": %s}' % ("1" * 5000), "Exceeds the limit")],
    ids=["deeply-nested", "long-integer"],
)
def test_config_json_that_cannot_be_read_exit_three(tmp_path, capsys, text, message):
    config = tmp_path / "bad.json"
    config.write_text(text)
    assert main(["run", scenario_path("fetch_close"), "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not valid JSON: ") and message in err


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


@pytest.mark.parametrize("option, target", [
    ("--trace", "missing-dir"), ("--trace", "dir"), ("--ltm-save", "missing-dir"),
], ids=["trace-in-missing-dir", "trace-is-a-dir", "ltm-save-in-missing-dir"])
def test_output_path_that_cannot_be_written_exit_three(tmp_path, capsys, option, target):
    bad = str(tmp_path / "no" / "such" / "out.txt") if target == "missing-dir" else str(tmp_path)
    argv = ["run", scenario_path("waterleak"), option, bad]
    if option != "--trace":
        argv += ["--trace", str(tmp_path / "ok.trace")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {bad}: cannot write file: ")


@pytest.mark.parametrize("option, trace", [
    ("--trace", None), ("--ltm-save", None), ("--ltm-save", "new"), ("--ltm-save", "existing"),
], ids=["trace", "ltm-save-with-default-trace", "ltm-save-with-trace", "ltm-save-with-existing-trace"])
def test_output_path_that_cannot_be_written_runs_no_tick_and_writes_no_file(
    tmp_path, monkeypatch, capsys, option, trace
):
    calls = []
    monkeypatch.setattr("gridmind.agent.run_scenario", lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    bad = str(tmp_path / "no" / "such" / "out.txt")
    argv = ["run", scenario_path("waterleak"), option, bad]
    if trace is not None:
        argv += ["--trace", str(tmp_path / "ok.trace")]
    if trace == "existing":
        (tmp_path / "ok.trace").write_text("kept\n")
    files = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {bad}: cannot write file: No such file or directory"]
    assert calls == []
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("task", [
    "navigate target=robot1",
    "fetch object=box1 to=box1",
    "fetch object=robot1 to=box1",
    "arrange surface=table1 objects=robot1",
    "arrange surface=table1 objects=table1",
])
@pytest.mark.parametrize("trace", [None, "out.trace"], ids=["default-trace", "trace"])
def test_task_naming_the_agent_or_its_own_object_runs_no_tick_and_writes_no_file(
    tmp_path, monkeypatch, capsys, task, trace
):
    from gridmind.agent import AgentRuntime

    ticks = []
    pipeline = AgentRuntime._pipeline
    monkeypatch.setattr(
        AgentRuntime, "_pipeline", lambda self, **kw: ticks.append(kw) or pipeline(self, **kw)
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.scn").write_text(
        "version 1\ngrid 6 6\nregion room 0 0 5 5\nagent robot1 0 0\n"
        f"entity box1 2 3 category=box color=red size=2\nentity table1 4 4 category=table\ntask {task}\n"
    )
    argv = ["run", "scene.scn"] + (["--trace", trace] if trace else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ")
    assert ticks == []
    assert [p.name for p in tmp_path.iterdir()] == ["scene.scn"]


def test_replay_resolves_scenario_path_against_current_directory(tmp_path, monkeypatch, capsys):
    recorded = tmp_path / "recorded"
    (recorded / "scenarios").mkdir(parents=True)
    with open(scenario_path("fetch_close"), encoding="utf-8") as fh:
        (recorded / "scenarios" / "fetch_close.scn").write_text(fh.read())
    trace = tmp_path / "run.trace"
    monkeypatch.chdir(recorded)
    assert main(["run", "scenarios/fetch_close.scn", "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text().splitlines()[0])["scenario"] == "scenarios/fetch_close.scn"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    with pytest.raises(TraceError):
        replay(str(trace))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith("error: scenarios/fetch_close.scn: cannot read scenario: ")
    monkeypatch.chdir(recorded)
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "snapshot_text",
    ["bad line\n", "a|isa|b|high|0|asserted\n", "a|isa|b|1.0|0|dreamt\n"],
    ids=["not-six-fields", "bad-confidence", "bad-origin"],
)
def test_malformed_ltm_snapshot_exit_three(tmp_path, capsys, snapshot_text):
    snapshot = tmp_path / "ltm.kb"
    snapshot.write_text(snapshot_text)
    trace = tmp_path / "out.trace"
    assert main([
        "run", scenario_path("fetch_close"), "--trace", str(trace),
        "--ltm-load", str(snapshot),
    ]) == 3
    assert capsys.readouterr().err.startswith("error: malformed LTM snapshot: ")
    assert not trace.exists()


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
    "bad_seed, message",
    [
        ("fact lines", "error: header field 'ltm'"),
        (["a|isa|b|1.000000|0|asserted", 7], "error: header field 'ltm'"),
        (["not a fact line"], "error: malformed LTM snapshot: "),
    ],
    ids=["not-a-list", "non-string-entry", "malformed-line"],
)
def test_bad_ltm_header_field_exit_three(tmp_path, capsys, bad_seed, message):
    trace, _ = _seeded_vase_room_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["ltm"] = bad_seed
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("version", [1, 3, "2"], ids=["older", "newer", "string"])
def test_trace_of_another_format_version_exit_three_before_any_run(tmp_path, capsys, monkeypatch, version):
    trace = tmp_path / "run.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(trace)]) == 0
    _edit_trace(trace, lambda header, summary: header.update(version=version))

    def no_run(*args, **kwargs):
        raise AssertionError("replay re-ran the engine")

    monkeypatch.setattr("gridmind.agent.run_scenario", no_run)
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith(f"error: trace format version {version!r} cannot be replayed, only 2")


def test_header_without_scenario_digest_exit_three(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(trace)]) == 0
    _edit_trace(trace, lambda header, summary: header.pop("scenario_sha256"))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith("error: header missing field 'scenario_sha256'")


def test_unknown_planner_spec_exit_three():
    assert main(["run", scenario_path("fetch_close"), "--planner", "psychic"]) == 3


def test_external_planner_process_ends_with_the_run(tmp_path):
    # the stub never answers; the run gives up on it and must not leave it
    # sleeping after gridmind returns
    pid_file = tmp_path / "planner.pid"
    stub = Path(__file__).parent / "stub_planner.py"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"planner_timeout": 1.0, "replan_limit": 1}))
    code = main([
        "run", scenario_path("fetch_close"), "--trace", str(tmp_path / "out.trace"),
        "--config", str(config),
        "--planner", "cmd:" + shlex.join([sys.executable, str(stub), "timeout", str(pid_file)]),
    ])
    pid = int(pid_file.read_text())
    try:
        assert code == 2
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _edit_trace(trace: Path, edit) -> None:
    """Apply `edit(header, summary)` to the parsed records and write them back."""
    lines = trace.read_text().splitlines()
    header, summary = json.loads(lines[0]), json.loads(lines[-1])
    edit(header, summary)
    lines[0], lines[-1] = json.dumps(header), json.dumps(summary)
    trace.write_text("\n".join(lines) + "\n")


NOT_UTF8 = b"version 1\n\xff\xfe\n"


@pytest.mark.parametrize("input_kind", ["scenario", "config", "ltm", "kb", "trace", "replayed-scenario"])
def test_input_that_is_not_utf8_exit_three(tmp_path, capsys, input_kind):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    fetch, out = scenario_path("fetch_close"), str(tmp_path / "out.trace")
    argv = {
        "scenario": ["run", str(bad), "--trace", out],
        "config": ["run", fetch, "--config", str(bad), "--trace", out],
        "ltm": ["run", fetch, "--ltm-load", str(bad), "--trace", out],
        "kb": ["query", str(bad), "isa(?x, ?y)"],
        "trace": ["replay", str(bad)],
    }.get(input_kind)
    if argv is None:  # the replayed scenario: record a run of a copy, then spoil the copy
        bad = tmp_path / "fetch_close.scn"
        bad.write_bytes(Path(fetch).read_bytes())
        assert main(["run", str(bad), "--trace", out]) == 0
        bad.write_bytes(NOT_UTF8)
        argv = ["replay", out]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot read ")


def _drop_action(header, summary):
    del summary["episodes"][0]["plan"][0]["action"]


def _args_not_a_list(header, summary):
    summary["episodes"][0]["plan"][0]["args"] = "ball1"


def _step_not_an_object(header, summary):
    summary["episodes"][0]["plan"][0] = "PickUp"


@pytest.mark.parametrize("edit", [_drop_action, _args_not_a_list, _step_not_an_object])
def test_malformed_recorded_plan_exit_three(tmp_path, capsys, external_trace, edit):
    trace = tmp_path / "external.trace"
    trace.write_bytes(external_trace)
    _edit_trace(trace, edit)
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith("error: episode 0 records a malformed plan: planner_malformed")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", "zero", "header field 'seed' must be an integer"),
        ("config", ["max_ticks", 1], "header field 'config' must be an object"),
        ("episodes", ["episode"], "summary field 'episodes' must be a list of objects"),
        ("noise", "false", "header field 'noise' must be a boolean"),
        ("hazards_enabled", 1, "header field 'hazards_enabled' must be a boolean"),
        ("planner", ["x"], "header field 'planner' must be a string"),
        ("scenario", None, "header field 'scenario' must be a string"),
    ],
)
def test_malformed_trace_field_exit_three(tmp_path, capsys, external_trace, field, value, message):
    trace = tmp_path / "external.trace"
    trace.write_bytes(external_trace)
    _edit_trace(trace, lambda header, summary: (summary if field == "episodes" else header).update({field: value}))
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["error", "malformed", "timeout"])
def test_failed_planner_trace_replays_equal(tmp_path, capsys, mode):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"planner_timeout": 0.3}))
    trace = tmp_path / "failed.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(trace), "--config", str(config),
                 "--planner", stub_planner_spec(mode)]) == 2
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value",
    [
        ("wm_capacity", 0), ("chain_max_iterations", 0), ("trajectory_horizon", 0),
        ("markov_order", 0), ("episode_k", 0), ("ltm_retrieve_k", 0), ("window_size", 0),
        ("collision_epsilon", 0.0), ("severity_action_failure", 5), ("severity_stale", -0.1),
        ("near_distance", float("nan")), ("near_distance", float("inf")),
        ("wm_decay", 1.5), ("prediction_decay", -0.5), ("weight_min", 0.5), ("weight_max", 0.2),
        ("planner_timeout", 0), ("planner_timeout", -1), ("planner_timeout", 86400.5),
        ("planner_timeout", 1e12), ("planner_timeout", 1e308),
        ("near_distance", -3), ("stale_ttl", -1), ("mismatch_distance", 0), ("mismatch_distance", -2.5),
        ("replan_limit", 0), ("attention_threshold", 5), ("attention_threshold", -0.1),
        ("max_ticks", 0), ("max_ticks", -5),
    ],
)
def test_config_value_out_of_range_exit_three(tmp_path, capsys, field, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({field: value}))
    assert main(["run", scenario_path("fetch_close"), "--config", str(config),
                 "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err.startswith(f"error: bad value for {field}: ")


def test_config_value_that_rounds_out_of_range_is_named_as_given(tmp_path, capsys):
    # the bound is checked on the six-decimal value the trace would echo,
    # and the error names the value the user wrote, not its rounded form
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"collision_epsilon": 1e-7}))
    assert main(["run", scenario_path("crossing"), "--config", str(config),
                 "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err == "error: bad value for collision_epsilon: 1e-07 (must be > 0)\n"


@pytest.mark.parametrize(
    "lines",
    ["entity a 1 1 contains=b\nentity b 1 1 contains=a", "entity a 1 1 contains=c\nentity b 1 1 contains=c\nentity c 1 1"],
    ids=["cycle", "two-containers"],
)
def test_scenario_containment_that_is_no_tree_exit_three(tmp_path, capsys, lines):
    bad = tmp_path / "bad.scn"
    bad.write_text(f"grid 6 6\nagent robot1 0 0\n{lines}\n")
    assert main(["run", str(bad), "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_scenario_with_two_entities_on_one_non_surface_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "grid 6 6\nagent robot1 0 0\nentity t 1 1 category=table\n"
        "entity b 1 1 category=cup on=t\nentity x 1 1 on=b\nentity y 1 1 on=b\n"
    )
    assert main(["run", str(bad), "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}:6: entity 'y' rests on 'b'")


def test_max_ticks_flag_of_zero_exit_three(tmp_path, capsys):
    assert main(["run", scenario_path("fetch_close"), "--max-ticks", "0",
                 "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err == "error: bad value for max_ticks: 0 (must be >= 1)\n"


@pytest.mark.parametrize(
    "lines, located",
    [
        ("agent robot1 0 0\nentity c 1 1 on=a contains=b\nentity a 2 2 on=b\nentity b 3 3", ""),
        ("agent robot1 0 0\nentity s 1 1 category=table\nentity x 2 2 contains=c\nentity c 1 1 on=s", ""),
        ("entity s 1 1 category=table\nagent robot1 1 1 on=s", ""),
        ("agent robot1 0 0\nentity r 3 3 on=robot1\nentity b 4 4 contains=robot1", ""),
        ("agent robot1 0 0\nentity c 1 1 category=cup on=robot1", "3:"),
        ("agent robot1 0 0\nregion room 0 0 2 2\nregion room 3 3 5 5", "4:"),
    ],
    ids=["mixed-cycle", "on-and-contained", "agent-on", "agent-contained", "on-the-agent",
         "duplicate-region"],
)
def test_scenario_with_no_single_anchor_or_a_twice_declared_region_exit_three(
    tmp_path, capsys, lines, located
):
    bad = tmp_path / "bad.scn"
    bad.write_text(f"grid 6 6\n{lines}\n")
    assert main(["run", str(bad), "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}:{located} ")


@pytest.mark.parametrize("value", [-1, 1e12])
def test_planner_timeout_out_of_range_ends_before_a_tcp_planner_connects(tmp_path, capsys, value):
    # -1 used to reach the socket as "Timeout value out of range", and 1e12
    # the deadline as "timestamp out of range for platform time_t"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"planner_timeout": value}))
    with socket.create_server(("127.0.0.1", 0)) as server:
        host, port = server.getsockname()
        assert main(["run", scenario_path("fetch_close"), "--config", str(config),
                     "--trace", str(tmp_path / "out.trace"), "--planner", f"tcp:{host}:{port}"]) == 3
        server.setblocking(False)
        with pytest.raises(BlockingIOError):
            server.accept()
    assert capsys.readouterr().err.startswith("error: bad value for planner_timeout: ")


def test_largest_planner_timeout_is_accepted():
    from gridmind.config import EngineConfig

    assert EngineConfig().with_overrides({"planner_timeout": 86400}).planner_timeout == 86400.0


def test_planner_effect_tick_that_overflows_fails_the_cycle(tmp_path, capsys):
    # json reads 1e400 as inf, and int(inf) raises OverflowError
    trace = tmp_path / "overflow.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(trace),
                 "--planner", stub_planner_spec("overflow")]) == 2
    *rows, summary = map(json.loads, trace.read_text().splitlines()[1:])
    assert summary["episodes"][0]["planner_error"][0] == "planner_malformed"
    assert episode_rows(rows, summary["episodes"][0]) == []
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "lines,belief",
    [
        (
            "entity ball1 2 3 category=ball\nentity box1 3 2 category=box\n"
            "fact ball1 at nowhere\ntask fetch object=ball1 to=box1\n",
            "ball1 at nowhere",
        ),
        (
            "entity table1 5 3 category=table\nentity ball2 2 1 category=ball color=blue size=3\n"
            "fact ball2 size big\ntask arrange surface=table1 sort=color,size\n",
            "ball2 size big",
        ),
    ],
)
def test_belief_the_scripted_planner_cannot_read_aborts_the_run(tmp_path, capsys, lines, belief):
    # a scenario fact the planner cannot read fails each cycle, not the process
    scenario = tmp_path / "unreadable.scn"
    scenario.write_text("version 1\ngrid 10 8\nregion room 0 0 9 7\nagent robot1 4 4\n" + lines)
    trace = tmp_path / "unreadable.trace"
    assert main(["run", str(scenario), "--trace", str(trace)]) == 2
    *rows, summary = map(json.loads, trace.read_text().splitlines()[1:])
    assert summary["outcome"] == "aborted"
    assert summary["episodes"][0]["planner_error"] == ["planner_error", f"cannot read the belief {belief}"]
    assert episode_rows(rows, summary["episodes"][0]) == []
    assert main(["replay", str(trace)]) == 0
    assert "replay equal" in capsys.readouterr().out


@pytest.mark.parametrize("tick_text", ["1e400", "Infinity", "-Infinity"])
def test_recorded_effect_tick_that_overflows_exit_three(tmp_path, capsys, external_trace, tick_text):
    trace = tmp_path / "external.trace"
    trace.write_bytes(external_trace)

    def overflow(header, summary):
        summary["episodes"][0]["plan"][0]["effects"] = [["ball1", "has_state", "held", 1.0, float("inf")]]

    _edit_trace(trace, overflow)
    trace.write_text(trace.read_text().replace("Infinity", tick_text))
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: episode 0 records a malformed plan: planner_malformed: bad effect: "
    )


@pytest.mark.parametrize("error", ["planner_error", ["planner_error"], ["planner_error", 7]])
def test_recorded_planner_error_that_is_no_code_and_detail_exit_three(tmp_path, capsys, external_trace, error):
    trace = tmp_path / "external.trace"
    trace.write_bytes(external_trace)
    _edit_trace(trace, lambda header, summary: summary["episodes"][0].update(planner_error=error))
    assert main(["replay", str(trace)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: episode 0 records a malformed plan: planner_malformed: planner_error must be [code, detail]"
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("wm_capacity", 2.9), ("max_ticks", True), ("near_distance", False),
        ("episode_k", 1.5), ("collision_epsilon", True), ("chain_max_iterations", False),
    ],
)
def test_config_value_of_wrong_type_exit_three(tmp_path, capsys, field, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({field: value}))
    assert main(["run", scenario_path("fetch_close"), "--config", str(config),
                 "--trace", str(tmp_path / "out.trace")]) == 3
    assert capsys.readouterr().err.startswith(f"error: bad value for {field}: ")


def test_config_whole_float_and_scenario_string_stay_ints():
    from gridmind.config import EngineConfig

    config = EngineConfig().with_overrides({"wm_capacity": 2.0, "max_ticks": "40", "near_distance": 3})
    assert (config.wm_capacity, config.max_ticks, config.near_distance) == (2, 40, 3.0)
    assert type(config.wm_capacity) is int and type(config.max_ticks) is int
