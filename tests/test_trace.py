"""Trace files: byte determinism, replay, divergence reporting."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import BUNDLED, PERFBENCH, episode_rows, run_bundled, run_generated, scenario_path
from gridmind import trace as trace_mod
from gridmind.trace import TraceError, compare_lines, parse_trace, replay, write_trace


def _trace_for(tmp_path: Path, name: str, **kwargs) -> Path:
    result = run_bundled(name, **kwargs)
    path = tmp_path / f"{name}.trace"
    write_trace(str(path), result.lines)
    return path


class TestDeterminism:
    def test_two_runs_identical_bytes(self):
        a = run_bundled("hotcoffee", seed=3)
        b = run_bundled("hotcoffee", seed=3)
        assert a.lines == b.lines

    def test_different_seeds_with_noise_differ(self):
        a = run_bundled("hotcoffee", seed=1, noise=True)
        b = run_bundled("hotcoffee", seed=2, noise=True)
        assert a.lines != b.lines

    def test_same_seed_with_noise_identical(self):
        a = run_bundled("hotcoffee", seed=5, noise=True)
        b = run_bundled("hotcoffee", seed=5, noise=True)
        assert a.lines == b.lines


class TestReplay:
    def test_fresh_trace_replays_fully_equal(self, tmp_path):
        path = _trace_for(tmp_path, "knockover")
        report = replay(str(path))
        assert report.equal
        assert report.lines_checked == len(path.read_text().splitlines())

    def test_edited_float_reports_tick_and_field(self, tmp_path):
        path = _trace_for(tmp_path, "knockover")
        lines = path.read_text().splitlines()
        target = next(
            i for i, line in enumerate(lines)
            if '"record":"tick"' in line and '"tick":2' in line
        )
        lines[target] = lines[target].replace(
            '"temporal":0.333333', '"temporal":0.999999'
        )
        path.write_text("\n".join(lines) + "\n")
        report = replay(str(path))
        assert not report.equal
        assert report.divergence_line == target + 1
        assert report.divergence_tick == 2
        assert "weights" in report.divergence_path

    def test_truncated_trace_is_malformed(self, tmp_path):
        path = _trace_for(tmp_path, "knockover")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary
        with pytest.raises(TraceError):
            replay(str(path))

    def test_non_json_line_is_malformed(self, tmp_path):
        path = _trace_for(tmp_path, "knockover")
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            replay(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [("[" * 100000, "JSON nested too deeply"), ("1" * 5000, "Exceeds the limit")],
        ids=["deeply-nested", "long-integer"],
    )
    def test_json_line_that_cannot_be_read_is_malformed(self, tmp_path, line, message):
        path = _trace_for(tmp_path, "knockover")
        lines = path.read_text().splitlines()
        lines.insert(1, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=f"line 2 is not valid JSON: {message}"):
            replay(str(path))

    def test_no_hazard_flag_round_trips_through_replay(self, tmp_path):
        path = _trace_for(tmp_path, "waterleak", hazards=False)
        assert replay(str(path)).equal

    def test_external_trace_replays_via_plan_playback(self, tmp_path):
        from gridmind.agent import run_scenario
        from gridmind.config import EngineConfig
        from gridmind.decide import SubprocessPlanner
        from gridmind.world import load_scenario

        stub = [sys.executable, str(Path(__file__).parent / "stub_planner.py"), "fetch"]
        spath = scenario_path("fetch_close")
        scenario = load_scenario(spath)
        with open(spath, "r", encoding="utf-8") as fh:
            text = fh.read()
        client = SubprocessPlanner(stub, timeout=10.0)
        try:
            result = run_scenario(
                scenario,
                EngineConfig(),
                seed=0,
                planner_factory=lambda runtime: client.plan,
                planner_name="external",
                scenario_text=text,
            )
        finally:
            client.close()
        path = tmp_path / "external.trace"
        write_trace(str(path), result.lines)
        report = replay(str(path))
        assert report.equal


class TestParsing:
    def test_parse_splits_header_ticks_summary(self, tmp_path):
        path = _trace_for(tmp_path, "fetch_close")
        header, ticks, summary = parse_trace(path.read_text().splitlines())
        assert header["record"] == "header"
        assert summary["record"] == "summary"
        assert [t["tick"] for t in ticks] == list(range(len(ticks)))

    def test_compare_lines_length_mismatch(self):
        report = compare_lines(["a", "b"], ["a"])
        assert not report.equal
        assert report.divergence_line == 2

    def test_diff_path_pinpoints_nested_field(self):
        a = {"weights": {"temporal": 0.3}, "top": [["e1", 0.5]]}
        b = {"weights": {"temporal": 0.3}, "top": [["e1", 0.6]]}
        assert trace_mod.diff_path(a, b) == "$.top[0][1]"

    @pytest.mark.parametrize("line", ["[" * 100000, "1" * 5000], ids=["deeply-nested", "long-integer"])
    def test_divergence_in_lines_that_cannot_be_read_has_no_path(self, line):
        report = compare_lines([line], [line[:-1]])
        assert not report.equal
        assert report.divergence_line == 1
        assert report.divergence_tick is None and report.divergence_path is None

    def test_diff_path_walks_nesting_deeper_than_the_recursion_limit(self):
        a, b = [1], [2]
        for _ in range(sys.getrecursionlimit() * 2):
            a, b = [a], [b]
        path = trace_mod.diff_path({"x": a}, {"x": b})
        assert path == "$.x" + "[0]" * (sys.getrecursionlimit() * 2 + 1)


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED + ["crowded", "traffic"])
def test_each_episode_executed_a_prefix_of_its_plan_in_its_tick_span(monkeypatch, name, noise):
    # the summary holds no copy of a step: an episode's steps are the tick
    # rows in its span, and every tick after the first is one episode's step
    monkeypatch.syspath_prepend(str(PERFBENCH))
    result = run_generated(name, noise=noise) if name in ("crowded", "traffic") else run_bundled(name, noise=noise)
    _, rows, summary = parse_trace(result.lines)
    spans = []
    for episode in summary["episodes"]:
        actions = [row["action"] for row in episode_rows(rows, episode)]
        plan = [{"name": step["action"], "args": step["args"]} for step in episode["plan"]]
        assert actions == plan[: len(actions)]
        if episode["planner_error"] is not None:
            assert actions == [] and plan == []
        spans += [row["tick"] for row in episode_rows(rows, episode)]
    assert spans == [row["tick"] for row in rows[1:]]
