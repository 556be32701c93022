"""Command-line entry point.

Subcommands:

* ``run``     execute a scenario end to end and write its trace,
* ``replay``  re-run a trace's inputs and verify byte equality,
* ``query``   evaluate a pattern against a KB file after inference.

Exit codes for ``run``: 0 task success, 2 abort, 3 load/config error or
an output path that cannot be written.
Exit codes for ``replay``: 0 fully equal, 1 divergence, 3 malformed input.
Exit codes for ``query``: 0 answered (no match included), 3 a bad KB, rule
file or pattern, or inference that stops at its pass cap before a
fixpoint is confirmed.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from pathlib import Path

from . import agent, decide, trace
from .canonical import InputError, read_text
from .config import ConfigError, EngineConfig, load_config_file
from .kb import Rule, ValidationError, forward_chain, graph_from_lines, query as kb_query
from .rulefmt import load_composition, load_rules, parse_atom, parse_rule_line
from .world import ScenarioError, parse_scenario

CONFIG_ENV_VAR = "GRIDMIND_CONFIG"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "replay":
            return cmd_replay(args)
        if args.command == "query":
            return cmd_query(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    parser.print_help()
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmind")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario end to end")
    run_p.add_argument("scenario", help="path to a .scn scenario file")
    run_p.add_argument(
        "--planner",
        default="scripted",
        help="scripted | cmd:<command line> | tcp:<host>:<port>",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--max-ticks", type=int, default=None)
    run_p.add_argument("--no-hazard", action="store_true", help="disable hazard assessment")
    run_p.add_argument("--noise", action="store_true", help="enable observation position noise")
    run_p.add_argument("--config", default=None, help="JSON config file")
    run_p.add_argument("--trace", default=None, help="trace output path")
    run_p.add_argument("--ltm-load", default=None, help="seed semantic LTM from a KB snapshot")
    run_p.add_argument("--ltm-save", default=None, help="write semantic LTM snapshot on exit")

    replay_p = sub.add_parser("replay", help="verify a recorded trace")
    replay_p.add_argument("trace", help="path to a trace file")

    query_p = sub.add_parser("query", help="evaluate a pattern against a KB file")
    query_p.add_argument("kb", help="KB snapshot file (canonical fact lines)")
    query_p.add_argument("pattern", help="e.g. 'LeftOf(vase1, ?x)'")
    query_p.add_argument("--rules", default=None, help="rule file to forward-chain first")
    query_p.add_argument("--composition", default=None, help="composition table override")
    return parser


def _resolve_config(args) -> EngineConfig:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    return load_config_file(config_path) if config_path else EngineConfig()


def _planner_factory(spec: str, config: EngineConfig):
    """The planner factory, its trace name, and the client to close, if any."""
    if spec == "scripted":
        return agent.scripted_planner_factory, "scripted", None
    if spec.startswith("cmd:"):
        argv = shlex.split(spec[4:])
        if not argv:
            raise ConfigError("empty planner command")
        client = decide.SubprocessPlanner(argv, timeout=config.planner_timeout)
    elif spec.startswith("tcp:"):
        host, _, port_text = spec[4:].rpartition(":")
        if not host or not port_text.isdigit():
            raise ConfigError(f"bad tcp planner address {spec!r}")
        client = decide.TcpPlanner(host, int(port_text), timeout=config.planner_timeout)
    else:
        raise ConfigError(f"unknown planner {spec!r}")

    def factory(runtime):
        return client.plan

    return factory, "external", client


def cmd_run(args) -> int:
    scenario_text = read_text(args.scenario, ScenarioError, "scenario")
    scenario = parse_scenario(scenario_text, args.scenario)
    config = _resolve_config(args)
    if scenario.config_overrides:
        config = config.with_overrides(dict(scenario.config_overrides))
    if args.max_ticks is not None:
        config = config.with_overrides({"max_ticks": args.max_ticks})
    ltm_lines = None
    if args.ltm_load:
        ltm_lines = read_text(args.ltm_load, ConfigError, "LTM snapshot").split("\n")
    factory, planner_name, client = _planner_factory(args.planner, config)
    try:
        result = agent.run_scenario(
            scenario,
            config,
            seed=args.seed,
            planner_factory=factory,
            noise=args.noise,
            hazards_enabled=not args.no_hazard,
            planner_name=planner_name,
            scenario_text=scenario_text,
            ltm_lines=ltm_lines,
        )
    finally:
        # an external planner that hangs must not outlive the run
        if client is not None:
            client.close()
    trace_path = args.trace or (Path(args.scenario).stem + ".trace")
    trace.write_trace(str(trace_path), result.lines)
    if args.ltm_save:
        trace.write_trace(args.ltm_save, result.runtime.ltm.semantic.to_lines())
    print(f"{result.outcome}: {result.runtime.world.tick} ticks, trace -> {trace_path}")
    return result.exit_code


def cmd_replay(args) -> int:
    report = trace.replay(args.trace)
    print(report.describe())
    return 0 if report.equal else 1


def cmd_query(args) -> int:
    kb_text = read_text(args.kb, InputError, "KB file")
    try:
        graph = graph_from_lines(kb_text.split("\n"))
    except ValueError as exc:
        raise InputError(str(exc), path=args.kb) from exc
    rules: list[Rule] = []
    if args.rules:
        rules = load_rules(args.rules)
    # precedence facts close transitively like any other chained relation
    rules.append(parse_rule_line("rule before-transitivity 1.0: Before(?x, ?y), Before(?y, ?z) -> Before(?x, ?z)"))
    _chain(graph, rules, 100)
    composition = args.composition or str(agent.data_root().joinpath("composition.txt"))
    _chain(graph, load_composition(composition), 1000)
    pattern = parse_atom(args.pattern, path="<pattern>")
    # a pattern no fact could match is an error, not an empty answer
    try:
        pattern.check_constants()
    except ValidationError as exc:
        raise InputError(str(exc), path="<pattern>") from None
    bindings = kb_query(graph, pattern)
    ground = not pattern.variables()
    for binding in bindings:
        if ground:
            print("match")
        else:
            pairs = [f"{var.lstrip('?')}={binding[var]}" for var in sorted(binding)]
            print(", ".join(pairs))
    return 0


def _chain(graph, rules: list[Rule], cap: int) -> None:
    """Chain `rules` over `graph`: an answer that the pass cap may have cut
    short is no answer."""
    if forward_chain(graph, rules, cap).truncated:
        raise InputError(
            f"inference stopped at its cap of {cap} passes, before a fixpoint was confirmed"
        )


if __name__ == "__main__":
    sys.exit(main())
