#!/usr/bin/env python3
"""Check the checks: plant one fault per check and show that it fails.

Run from the repository root:

    python3 perfbench/plant_faults.py

Each fault is planted in a copy of a genuine engine result (never in the
engine): the check must pass on the result as produced and fail on the
planted copy. Exits 0 when every planted fault is caught.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

import checks
import workloads
from run import ROOT, WORK, import_engine, prepare


def _unified(unified, facts=None, contradictions=None):
    """A stand-in for the final tick's cognition with some parts replaced."""
    facts = list(unified.graph.facts()) if facts is None else facts
    return SimpleNamespace(
        graph=SimpleNamespace(facts=lambda: facts),
        contradictions=unified.contradictions if contradictions is None else contradictions,
    )


def main() -> int:
    gm = import_engine()
    rules = gm.agent.RuleData.load_default()
    tables = (checks.load_exclusions(ROOT), checks.load_composition(ROOT))
    exclusions, composition = tables
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="faults-", dir=WORK)
    try:
        inputs = {i.name: i for i in prepare(gm, "bundled", 1, workdir)}
        inputs.update({i.name: i for i in prepare(gm, "crowded", 1, workdir)})

        def run(name):
            inp = inputs[name]
            return gm.agent.run_scenario(
                inp.scenario, inp.config, 1, gm.agent.scripted_planner_factory,
                scenario_text=inp.text, data=rules,
            )

        ltm = run(workloads.LTM_VARIANT).runtime.unified
        fetch = run("fetch_close")
        crowded = run("crowded")
        c_text = inputs["crowded"].text
        c_world, c_unified = crowded.runtime.world, crowded.runtime.unified
        near = crowded.runtime.config.near_distance
        c_base = checks.perceived_pairs(c_world, near) | checks.structural_facts(c_world)
        perceived = [f for f in c_unified.graph.facts() if f.origin == "perceived" and f.relation in checks.PAIRWISE]
        derived = [f for f in c_unified.graph.facts() if f.origin == "derived" and f.relation in checks.SPATIAL]
        moved = copy.deepcopy(fetch.runtime.world)
        moved.entities["ball1"].on = None
        moved.entities["ball1"].position = (0, 0)
        trace_path = os.path.join(workdir, "fetch_close.trace")
        gm.trace.write_trace(trace_path, fetch.lines)
        flipped_path = os.path.join(workdir, "fetch_close-flipped.trace")
        with open(trace_path, "rb") as fh:
            data = bytearray(fh.read())
        at = data.index(b'"wm":') + len(b'"wm":')  # first tick row's WM size
        data[at] = ord("9") if data[at] != ord("9") else ord("8")
        with open(flipped_path, "wb") as fh:
            fh.write(data)

        def replay_equal(path):
            report = gm.trace.replay(path)
            checks.require(report.equal, report.describe())

        cases = [
            (
                "drop one contradiction pair",
                lambda: checks.check_contradictions(ltm, exclusions),
                lambda: checks.check_contradictions(_unified(ltm, contradictions=ltm.contradictions[1:]), exclusions),
            ),
            (
                "move ball1 off box1",
                lambda: checks.check_goal(checks.task_line(inputs["fetch_close"].text), fetch.runtime.world),
                lambda: checks.check_goal(checks.task_line(inputs["fetch_close"].text), moved),
            ),
            (
                "flip one trace byte",
                lambda: replay_equal(trace_path),
                lambda: replay_equal(flipped_path),
            ),
            (
                "one tick more than the route",
                lambda: checks.check_route_length(c_text, crowded.runtime.world.tick),
                lambda: checks.check_route_length(c_text, crowded.runtime.world.tick + 1),
            ),
            (
                "drop one perceived fact",
                lambda: checks.check_perception(c_world, c_unified, near),
                lambda: checks.check_perception(
                    c_world, _unified(c_unified, facts=[f for f in c_unified.graph.facts() if f is not perceived[0]]), near
                ),
            ),
            (
                "drop one composed fact",
                lambda: checks.check_composition(c_base, c_unified, composition),
                lambda: checks.check_composition(
                    c_base, _unified(c_unified, facts=[f for f in c_unified.graph.facts() if f is not derived[0]]), composition
                ),
            ),
        ]
        caught = 0
        for fault, clean, planted in cases:
            clean()  # must pass: the fault is the only difference
            try:
                planted()
            except checks.CheckFailed as exc:
                caught += 1
                print(f"caught  {fault:32s} {str(exc).splitlines()[0][:90]}")
            else:
                print(f"MISSED  {fault}")
        print(f"{caught}/{len(cases)} planted faults caught")
        return 0 if caught == len(cases) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
