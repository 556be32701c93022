"""Trace files and replay verification.

A trace is line-delimited canonical JSON: one header record, one record
per tick, one final summary record. A step is recorded once, in its
tick's row; a summary episode holds what no row does (task, plan,
`planner_error`, outcome, tick span). Identical runs produce byte-identical
traces, so replay re-executes the engine from the header's inputs (the
LTM seed among them, for a seeded run) and compares line by line;
external-planner traces are replayed by feeding the recorded plans back
in (and re-raising each `planner_error` in its plan's place), everything
else is recomputed. A trace of another format version is refused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import agent
from .canonical import InputError, parse_json, read_text
from .config import EngineConfig
from .decide import PlannerError, PlanStep, parse_plan_steps
from .world import parse_scenario


class TraceError(InputError):
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
    """Write `lines` to `path`, one per line; a path that cannot be written
    (a missing directory, a directory, no permission) is a TraceError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise TraceError(f"cannot write file: {exc.strerror or exc}", path=path) from exc


def read_trace(path: str) -> list[str]:
    # split on "\n" alone: a record's strings may hold other line breaks
    return [line for line in read_text(path, TraceError, "trace").split("\n") if line.strip()]


def parse_trace(lines: list[str]) -> tuple[dict, list[dict], dict]:
    """Split and validate a trace into (header, tick rows, summary)."""
    if len(lines) < 2:
        raise TraceError("trace must contain at least a header and a summary record")
    rows = []
    for i, line in enumerate(lines, start=1):
        try:
            rows.append(parse_json(line))
        except ValueError as exc:
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


def _playback_planner_factory(recorded: list[list[PlanStep] | PlannerError]):
    remaining = list(recorded)

    def factory(runtime):
        def plan(query):
            if not remaining:
                raise PlannerError("planner_error", "trace playback exhausted")
            entry = remaining.pop(0)
            if isinstance(entry, PlannerError):
                raise entry
            return entry

        return plan

    return factory


def replay(trace_path: str) -> ReplayReport:
    """Re-run the engine from a trace's inputs; verify byte equality.

    The header's `scenario` path is opened as written: a relative path
    resolves against the current directory, not the trace's, so a trace
    recorded with a relative path replays only from the directory it was
    recorded in. A trace of another format version, an unreadable
    scenario, a malformed header field and a malformed recorded plan are
    each a TraceError.
    """
    original = read_trace(trace_path)
    header, _, summary = parse_trace(original)
    required = ("version", "scenario", "scenario_sha256", "seed", "noise", "hazards_enabled", "planner", "config")
    for key in required:
        if key not in header:
            raise TraceError(f"header missing field {key!r}")
    version = header["version"]
    if type(version) is not int or version != agent.TRACE_VERSION:
        raise TraceError(f"trace format version {version!r} cannot be replayed, only {agent.TRACE_VERSION}")
    if type(header["seed"]) is not int:
        raise TraceError("header field 'seed' must be an integer")
    for key in ("noise", "hazards_enabled"):
        if type(header[key]) is not bool:
            raise TraceError(f"header field {key!r} must be a boolean")
    for key in ("scenario", "scenario_sha256", "planner"):
        if not isinstance(header[key], str):
            raise TraceError(f"header field {key!r} must be a string")
    if not isinstance(header["config"], dict):
        raise TraceError("header field 'config' must be an object")
    scenario_path = header["scenario"]
    scenario_text = read_text(scenario_path, TraceError, "scenario")
    digest = hashlib.sha256(scenario_text.encode("utf-8")).hexdigest()
    if digest != header["scenario_sha256"]:
        raise TraceError(
            f"scenario file {scenario_path} changed since the trace was recorded"
        )
    scenario = parse_scenario(scenario_text, scenario_path)
    config = EngineConfig().with_overrides(header["config"])
    ltm_lines = _ltm_seed(header)
    if header["planner"] == "scripted":
        factory = agent.scripted_planner_factory
    else:
        factory = _playback_planner_factory(_recorded_plans(summary))
    result = agent.run_scenario(
        scenario,
        config,
        seed=header["seed"],
        planner_factory=factory,
        noise=header["noise"],
        hazards_enabled=header["hazards_enabled"],
        planner_name=header["planner"],
        scenario_text=scenario_text,
        ltm_lines=ltm_lines,
    )
    return compare_lines(original, result.lines)


def _recorded_plans(summary: dict) -> list[list[PlanStep] | PlannerError]:
    """Each episode's recorded plan, or the planner failure it recorded."""
    episodes = summary.get("episodes", [])
    if not isinstance(episodes, list) or not all(isinstance(e, dict) for e in episodes):
        raise TraceError("summary field 'episodes' must be a list of objects")
    recorded: list[list[PlanStep] | PlannerError] = []
    for i, episode in enumerate(episodes):
        try:
            recorded.append(_planner_failure(episode) or parse_plan_steps(episode.get("plan", [])))
        except PlannerError as exc:
            raise TraceError(f"episode {i} records a malformed plan: {exc}") from exc
    return recorded


def _planner_failure(episode: dict) -> PlannerError | None:
    """The failure of a planner that raised instead of planning: its
    episode's `planner_error`, (error code, detail)."""
    error = episode.get("planner_error")
    if error is None:
        return None
    if not (isinstance(error, list) and len(error) == 2 and all(isinstance(x, str) for x in error)):
        raise PlannerError("planner_malformed", "planner_error must be [code, detail]")
    return PlannerError(error[0], error[1])


def _ltm_seed(header: dict) -> list[str] | None:
    """The header's LTM seed (fact lines, parsed by `run_scenario`), or None
    for an unseeded run."""
    if "ltm" not in header:
        return None
    lines = header["ltm"]
    if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
        raise TraceError("header field 'ltm' must be a list of fact lines")
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
        a, b = parse_json(a_line), parse_json(b_line)
    except ValueError:
        return None, None
    tick = a.get("tick") if isinstance(a, dict) else None
    return tick, diff_path(a, b)


_ABSENT = object()  # a dict key only one side has


def diff_path(a: object, b: object, prefix: str = "$") -> str | None:
    """Path of the first difference between two parsed JSON values, depth
    first with dict keys sorted. The walk keeps its own stack, so no
    nesting depth makes it raise."""
    stack = [(a, b, prefix)]
    while stack:
        a, b, path = stack.pop()
        if type(a) is not type(b):
            return path
        if isinstance(a, dict):
            assert isinstance(b, dict)
            for key in sorted(set(a) | set(b), reverse=True):
                stack.append((a.get(key, _ABSENT), b.get(key, _ABSENT), f"{path}.{key}"))
        elif isinstance(a, list):
            assert isinstance(b, list)
            if len(a) != len(b):
                return f"{path}.length"
            for i in range(len(a) - 1, -1, -1):
                stack.append((a[i], b[i], f"{path}[{i}]"))
        elif a != b:
            return path
    return None
