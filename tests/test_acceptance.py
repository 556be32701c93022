"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every expected value here is either produced by an independent
brute-force oracle or was enumerated by hand from the definitions.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import gridmind
from conftest import BUNDLED, run_bundled, scenario_path
from gridmind.config import EngineConfig
from gridmind.kb import Fact
from gridmind.memory import WorkingMemory
from gridmind.metacog import Anomaly, regulate
from gridmind.reason import (
    EventSequenceModel,
    TemporalOrder,
    Trajectory,
    compose_spatial,
    detect_collision,
    predict_next,
    temporal_closure,
    train_sequence_model,
)
from gridmind.trace import replay, write_trace
from gridmind.world import Action, WorldState, load_scenario
from oracles import (
    composition_table,
    count_distribution,
    exhaustive_composition,
    random_dag,
    random_spatial_graph,
    reachability_closure,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] {label}: PASS", flush=True)


def tick_rows(result):
    return [json.loads(line) for line in result.lines[1:-1]]


def test_c01_temporal_closure_matches_reachability_oracle():
    with criterion("01 temporal closure vs brute-force reachability (200 DAGs)"):
        for seed in range(200):
            pairs = random_dag(random.Random(seed), max_nodes=8)
            engine = temporal_closure(TemporalOrder(set(pairs))).pairs
            assert engine == reachability_closure(pairs), f"seed {seed}"


def test_c02_spatial_composition_matches_exhaustive_oracle(rule_data):
    with criterion("02 spatial composition vs exhaustive oracle (200 KBs)"):
        for seed in range(200):
            graph = random_spatial_graph(random.Random(seed), max_entities=8)
            before = {f.key(): f.confidence for f in graph.facts()}
            compose_spatial(graph, rule_data.composition)
            engine = {key: round(conf, 12) for key, conf in (
                (f.key(), f.confidence) for f in graph.facts()
            )}
            oracle = exhaustive_composition(
                {key: conf for key, conf in before.items()},
                composition_table(rule_data.composition),
            )
            assert engine == {k: round(v, 12) for k, v in oracle.items()}, f"seed {seed}"


def test_c03_vase_room_derives_left_of_but_not_near():
    with criterion("03 vase room: LeftOf derived, Near not derived"):
        result = run_bundled("vase_room")
        assert result.outcome == "success"
        derived = [
            tuple(f[:3]) for row in tick_rows(result) for f in row["new_facts"]
        ]
        assert ("vase1", "LeftOf", "bed1") in derived
        assert all(t != ("vase1", "Near", "window1") for t in derived)
        unified = result.runtime.unified.graph
        stored = unified.get("vase1", "LeftOf", "bed1")
        assert stored is not None and stored.origin == "derived"
        assert unified.get("vase1", "Near", "window1") is None


def test_c04_knocked_over_cup_spills_only_its_liquid():
    with criterion("04 kitchen: spill derived for the contained liquid only"):
        result = run_bundled("knockover")
        assert result.outcome == "success"
        spilled = {
            f[0]
            for row in tick_rows(result)
            for f in row["new_facts"]
            if f[1] == "has_state" and f[2] == "spilled"
        }
        assert spilled == {"liq1"}
        unified = result.runtime.unified.graph
        assert unified.get("liq1", "has_state", "spilled") is not None
        assert unified.get("liq2", "has_state", "spilled") is None


def test_c05_next_event_prediction_matches_counting_oracle():
    with criterion("05 next-event prediction vs counting oracle (100 sequences)"):
        kinds = ["A", "B", "C", "D"]
        for seed in range(100):
            rng = random.Random(seed)
            order = rng.randint(1, 3)
            support = kinds[: rng.randint(2, 4)]
            sequence = [rng.choice(support) for _ in range(rng.randint(order + 1, 100))]
            model = train_sequence_model(EventSequenceModel(order=order), sequence)
            history = [rng.choice(support) for _ in range(order)]
            prediction = predict_next(model, history)
            assert abs(sum(prediction.distribution.values()) - 1.0) <= 1e-12
            oracle = count_distribution(sequence, order, history)
            if oracle is None:
                assert prediction.uninformed
                expected = Fraction(1, len(set(sequence)))
                for p in prediction.distribution.values():
                    assert abs(p - float(expected)) <= 1e-12
            else:
                assert not prediction.uninformed
                assert set(prediction.distribution) == set(oracle)
                for kind, frac in oracle.items():
                    assert abs(prediction.distribution[kind] - float(frac)) <= 1e-12


CROSSING_EXPECTED = {
    # hand-enumerated from the scripted paths: a=(t,3), b=(6-t,t), c=(5-t,4)
    ("mover_a", "mover_b"): {0.5: {3}, 1.0: {3}, 1.5: {3}},
    ("mover_a", "mover_c"): {0.5: set(), 1.0: set(), 1.5: {2, 3}},
    ("mover_b", "mover_c"): {0.5: set(), 1.0: set(), 1.5: {3, 4, 5}},
}


def test_c06_crossing_collision_ticks_exact_and_symmetric():
    with criterion("06 collision ticks exact for three epsilons + symmetry"):
        world = WorldState(load_scenario(scenario_path("crossing")), seed=0)
        tracks = {name: {0: world.entities[name].position} for name in
                  ("mover_a", "mover_b", "mover_c")}
        for tick in range(1, 7):
            world.step(Action("Wait"))
            for name in tracks:
                tracks[name][tick] = world.entities[name].position
        trajectories = {
            name: Trajectory(entity=name, positions=positions)
            for name, positions in tracks.items()
        }
        for (first, second), by_eps in CROSSING_EXPECTED.items():
            for epsilon, expected in by_eps.items():
                risks = detect_collision(trajectories[first], trajectories[second], epsilon)
                assert {t for t, _ in risks} == expected, (first, second, epsilon)
        rng = random.Random(99)
        for _ in range(100):
            a = Trajectory("a", {i: (rng.randint(0, 9), rng.randint(0, 9)) for i in range(6)})
            b = Trajectory("b", {i + rng.randint(0, 2): (rng.randint(0, 9), rng.randint(0, 9))
                                 for i in range(6)})
            eps = rng.choice([0.5, 1.0, 1.5])
            assert detect_collision(a, b, eps) == detect_collision(b, a, eps)


def test_c07_arrange_reaches_goal_and_checker_passes():
    with criterion("07 arrange end to end: goal within 200 ticks, stacks valid"):
        result = run_bundled("arrange")
        assert result.outcome == "success"
        world = result.runtime.world
        assert world.tick <= 200
        objects = {
            "plate_b3", "plate_b2", "cup_b1", "plate_r3", "bowl_r1", "vase_g2",
        }
        stacks = world.stacks_on("table1")
        placed = {entity for stack in stacks for entity in stack}
        assert placed == objects
        colors = []
        for stack in stacks:
            stack_colors = {world.entities[e].attributes["color"] for e in stack}
            assert len(stack_colors) == 1, f"mixed colors in stack {stack}"
            colors.append(stack_colors.pop())
            sizes = [world.entities[e].attributes["size"] for e in stack]
            assert all(a >= b for a, b in zip(sizes, sizes[1:])), \
                f"sizes not descending bottom-up in {stack}"
            fragile = ["fragile" in world.entities[e].flags for e in stack]
            seen_fragile = False
            for is_fragile in fragile:
                if is_fragile:
                    seen_fragile = True
                else:
                    assert not seen_fragile, f"fragile item buried in {stack}"
        assert len(colors) == len(set(colors)), "one stack per color"


def _executed_actions(result):
    return [
        (row["tick"], row["action"]["name"], tuple(row["action"]["args"]))
        for row in tick_rows(result)
        if row["action"] is not None
    ]


def test_c08_waterleak_cut_power_ordering_and_no_hazard_contrast():
    with criterion("08 water leak: CutPower precedes remediation; contrast run differs"):
        with_hazard = run_bundled("waterleak", hazards=True)
        assert with_hazard.outcome == "success"
        actions = _executed_actions(with_hazard)
        names = [name for _, name, _ in actions]
        assert "CutPower" in names
        cut_at = names.index("CutPower")
        for remediation in ("Mop", "FixLeak"):
            assert remediation in names
            assert cut_at < names.index(remediation)

        without = run_bundled("waterleak", hazards=False)
        assert without.outcome == "success"
        names_off = [name for _, name, _ in _executed_actions(without)]
        assert "CutPower" not in names_off
        assert names != names_off
        for row in tick_rows(without):
            assert row["new_facts"] == [] or all(
                f[1] != "hazard" for f in row["new_facts"]
            )


def test_c09_teleport_fault_flags_mismatch_with_directive_same_tick():
    with criterion("09 metacognition: fault flagged within one tick + directive"):
        result = run_bundled("teleport_fault")
        fault_tick = 4  # scenario teleports ball1 at tick 4
        rows = {row["tick"]: row for row in tick_rows(result)}
        hits = [
            t for t, row in rows.items()
            if any(a["kind"] == "PredictionMismatch" for a in row["anomalies"])
            and fault_tick <= t <= fault_tick + 1
        ]
        assert hits, "no PredictionMismatch within one tick of the fault"
        first = min(hits)
        kinds = {d["kind"] for d in rows[first]["directives"]}
        assert "DecayPredictionConfidence" in kinds

        mapped = {
            "PredictionMismatch": "DecayPredictionConfidence",
            "Contradiction": "RetrieveFromLTM",
            "ActionFailure": "TriggerReplan",
            "TemporalCycle": "TriggerReplan",
            "StaleWorkingMemory": "RetrieveFromLTM",
        }
        weights = {"temporal": 1 / 3, "spatial": 1 / 3, "conceptual": 1 / 3}
        for kind, directive_kind in sorted(mapped.items()):
            payload = ("a|LeftOf|b", "b|LeftOf|a") if kind == "Contradiction" else ("x|isa|cup",)
            directives, weights = regulate(
                [Anomaly(kind=kind, payload=payload, severity=0.9)], weights, EngineConfig()
            )
            assert directive_kind in {d.kind for d in directives}, kind


def test_c10_every_bundled_scenario_is_deterministic_and_replays(tmp_path):
    with criterion("10 determinism: byte-identical reruns + full replay equality"):
        for name in BUNDLED:
            first = run_bundled(name, seed=7)
            second = run_bundled(name, seed=7)
            assert first.lines == second.lines, f"{name}: reruns differ"
            path = tmp_path / f"{name}.trace"
            write_trace(str(path), first.lines)
            report = replay(str(path))
            assert report.equal, f"{name}: {report.describe()}"
        # cross-process spot check (fresh interpreter, fresh hash seed)
        cmd = [
            sys.executable, "-m", "gridmind.cli", "run",
            scenario_path("fetch_close"), "--seed", "7", "--trace",
        ]
        # the child imports the same gridmind as this process
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(gridmind.__file__).parent.parent), os.environ.get("PYTHONPATH")])
        ))
        out_a, out_b = tmp_path / "a.trace", tmp_path / "b.trace"
        subprocess.run(cmd + [str(out_a)], check=True, capture_output=True, env=env)
        subprocess.run(cmd + [str(out_b)], check=True, capture_output=True, env=env)
        assert out_a.read_bytes() == out_b.read_bytes()


def test_c11_memory_bounds_and_episode_accounting():
    with criterion("11 memory: WM bound over 10k ops; episodes match cycles"):
        wm = WorkingMemory(capacity=64)
        rng = random.Random(123)
        for i in range(10_000):
            fact = Fact(f"e{rng.randint(0, 500)}", "isa", "thing",
                        round(rng.random(), 3), rng.randint(0, 99), "perceived")
            wm.insert(fact, salience=rng.random(), tick=rng.randint(0, 99))
            assert len(wm) <= 64
        for name in BUNDLED:
            result = run_bundled(name)
            summary = json.loads(result.lines[-1])
            episodes = summary["episodes"]
            cycles = sum(len(run.episodes) for run in result.task_runs)
            assert len(episodes) == cycles, name
            assert len(result.runtime.ltm.episodic) == cycles, name
        failed = run_bundled("pickup_fail")
        outcomes = [e.outcome for e in failed.task_runs[0].episodes]
        assert outcomes == ["failure", "success"], "exactly one replan expected"


def test_c12_wire_protocol_round_trip_and_failure_modes():
    with criterion("12 wire protocol: stub round trip; failures are atomic"):
        from test_wire import _run_fetch_with, stub_argv
        from gridmind.decide import PlannerError, SubprocessPlanner, formulate_query, interpret_task

        ok = _run_fetch_with("fetch")
        assert ok.outcome == "success"
        assert ok.runtime.world.entities["ball1"].on == "box1"

        malformed = _run_fetch_with("malformed")
        assert malformed.outcome == "aborted"
        assert malformed.runtime.world.tick == 0, "no step may execute"

        scenario = load_scenario(scenario_path("fetch_close"))
        task = interpret_task(scenario.tasks[0], scenario)
        query = formulate_query(WorkingMemory(), task, [], [])
        client = SubprocessPlanner(stub_argv("timeout"), timeout=0.4)
        try:
            with pytest.raises(PlannerError) as exc:
                client.plan(query)
            assert exc.value.code == "planner_timeout"
        finally:
            client.close()
