"""Trace files and replay verification.

A trace is line-delimited canonical JSON: one header record, one record
per tick, one final summary record. Identical runs produce byte-identical
traces, so replay re-executes the engine from the header's inputs (the
LTM seed among them, for a seeded run) and compares line by line;
external-planner traces are replayed by feeding the recorded plans back
in, everything else is recomputed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import agent
from .config import EngineConfig
from .decide import Plan, PlannerError, PlanStep
from .kb import Fact, graph_from_lines
from .world import Action, load_scenario


class TraceError(ValueError):
    pass


@dataclass
class ReplayReport:
    equal: bool
    lines_checked: int
    divergence_line: int | None = None
    divergence_tick: int | None = None
    divergence_path: str | None = None
    message: str = ""

    def describe(self) -> str:
        if self.equal:
            return f"replay equal: {self.lines_checked} lines verified"
        where = f"line {self.divergence_line}"
        if self.divergence_tick is not None:
            where += f" (tick {self.divergence_tick})"
        if self.divergence_path:
            where += f" at {self.divergence_path}"
        return f"replay diverged: {where}: {self.message}"


def write_trace(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_trace(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


def parse_trace(lines: list[str]) -> tuple[dict, list[dict], dict]:
    """Split and validate a trace into (header, tick rows, summary)."""
    if len(lines) < 2:
        raise TraceError("trace must contain at least a header and a summary record")
    rows = []
    for i, line in enumerate(lines, start=1):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {i} is not valid JSON: {exc}") from exc
        if not isinstance(rows[-1], dict) or "record" not in rows[-1]:
            raise TraceError(f"line {i} is not a trace record")
    header, *middle, summary = rows
    if header.get("record") != "header":
        raise TraceError("first record must be the header")
    if summary.get("record") != "summary":
        raise TraceError("last record must be the summary (trace truncated?)")
    for i, row in enumerate(middle, start=2):
        if row.get("record") != "tick":
            raise TraceError(f"line {i}: expected a tick record")
    return header, middle, summary


def plan_from_records(records: list[dict]) -> Plan:
    steps = []
    for record in records:
        effects = [
            Fact(str(r[0]), str(r[1]), r[2], float(r[3]), int(r[4]), "derived")
            for r in record.get("effects", [])
        ]
        steps.append(
            PlanStep(
                action=Action(str(record["action"]), tuple(str(a) for a in record["args"])),
                effects=effects,
            )
        )
    return Plan(steps=steps, source="external")


def _playback_planner_factory(episode_plans: list[list[dict]]):
    remaining = list(episode_plans)

    def factory(runtime):
        def plan(query):
            if not remaining:
                raise PlannerError("planner_error", "trace playback exhausted")
            return plan_from_records(remaining.pop(0))

        return plan

    return factory


def replay(trace_path: str) -> ReplayReport:
    """Re-run the engine from a trace's inputs; verify byte equality."""
    original = read_trace(trace_path)
    header, _, summary = parse_trace(original)
    for key in ("scenario", "seed", "noise", "hazards_enabled", "planner", "config"):
        if key not in header:
            raise TraceError(f"header missing field {key!r}")
    scenario_path = str(header["scenario"])
    try:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            scenario_text = fh.read()
    except OSError as exc:
        raise TraceError(f"cannot read scenario {scenario_path}: {exc}") from exc
    digest = hashlib.sha256(scenario_text.encode("utf-8")).hexdigest()
    if digest != header.get("scenario_sha256"):
        raise TraceError(
            f"scenario file {scenario_path} changed since the trace was recorded"
        )
    scenario = load_scenario(scenario_path)
    config = EngineConfig().with_overrides(dict(header["config"]))
    ltm_lines = _ltm_seed(header)
    if header["planner"] == "scripted":
        factory = agent.scripted_planner_factory
    else:
        episode_plans = [list(e.get("plan", [])) for e in summary.get("episodes", [])]
        factory = _playback_planner_factory(episode_plans)
    result = agent.run_scenario(
        scenario,
        config,
        seed=int(header["seed"]),
        planner_factory=factory,
        noise=bool(header["noise"]),
        hazards_enabled=bool(header["hazards_enabled"]),
        planner_name=str(header["planner"]),
        scenario_text=scenario_text,
        ltm_lines=ltm_lines,
    )
    return compare_lines(original, result.lines)


def _ltm_seed(header: dict) -> list[str] | None:
    """The header's LTM seed (fact lines), or None for an unseeded run."""
    if "ltm" not in header:
        return None
    lines = header["ltm"]
    if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
        raise TraceError("header field 'ltm' must be a list of fact lines")
    try:
        graph_from_lines(lines)
    except ValueError as exc:
        raise TraceError(f"header field 'ltm' holds a malformed fact line: {exc}") from exc
    return lines


def compare_lines(original: list[str], regenerated: list[str]) -> ReplayReport:
    count = min(len(original), len(regenerated))
    for i in range(count):
        if original[i] != regenerated[i]:
            tick, path = _locate_divergence(original[i], regenerated[i])
            return ReplayReport(
                equal=False,
                lines_checked=i,
                divergence_line=i + 1,
                divergence_tick=tick,
                divergence_path=path,
                message="recorded and recomputed records differ",
            )
    if len(original) != len(regenerated):
        return ReplayReport(
            equal=False,
            lines_checked=count,
            divergence_line=count + 1,
            message=f"length mismatch: {len(original)} recorded vs {len(regenerated)} recomputed",
        )
    return ReplayReport(equal=True, lines_checked=count)


def _locate_divergence(a_line: str, b_line: str) -> tuple[int | None, str | None]:
    try:
        a, b = json.loads(a_line), json.loads(b_line)
    except json.JSONDecodeError:
        return None, None
    tick = a.get("tick") if isinstance(a, dict) else None
    return tick, diff_path(a, b)


def diff_path(a: object, b: object, prefix: str = "$") -> str | None:
    """Path of the first difference between two parsed JSON values."""
    if type(a) is not type(b):
        return prefix
    if isinstance(a, dict):
        assert isinstance(b, dict)
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{prefix}.{key}"
            sub = diff_path(a[key], b[key], f"{prefix}.{key}")
            if sub:
                return sub
        return None
    if isinstance(a, list):
        assert isinstance(b, list)
        if len(a) != len(b):
            return f"{prefix}.length"
        for i, (x, y) in enumerate(zip(a, b)):
            sub = diff_path(x, y, f"{prefix}[{i}]")
            if sub:
                return sub
        return None
    return None if a == b else prefix
