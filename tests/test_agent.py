"""Whole-loop integration: attention, hazards, directives, memory flow."""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridmind.agent as agent_module
from conftest import BUNDLED, PERFBENCH, run_bundled, scenario_path
from conftest import run_generated as _generated_run
from gridmind import canonical, reason
from gridmind.agent import AgentRuntime, RuleData, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.memory import WorkingMemory
from gridmind.reason import EventSequenceModel, predict_trajectory, train_sequence_model
from gridmind.world import parse_scenario
from oracles import SortingWorkingMemory, all_pairs_collision_facts


def rows(result):
    return [json.loads(line) for line in result.lines[1:-1]]


class TestSalienceDemo:
    def test_static_scenery_filtered_moving_things_ranked(self):
        result = run_bundled("driving_salience")
        mid = next(r for r in rows(result) if r["tick"] == 3)
        top_entities = [entity for entity, _ in mid["top"]]
        assert "car1" in top_entities and "ped1" in top_entities
        assert "building1" not in top_entities and "tree1" not in top_entities
        scores = dict(mid["top"])
        assert scores["car1"] > 0.5
        # below-threshold scenery never reaches working memory
        wm_subjects = {f.key()[0] for f in result.runtime.wm.snapshot_facts()}
        assert "building1" not in wm_subjects
        assert "building2" not in wm_subjects


class TestHazardFlow:
    def test_hot_coffee_hazard_appears_and_clears(self):
        result = run_bundled("hotcoffee")
        hazard_ticks = [
            r["tick"] for r in rows(result)
            if any(f[1] == "hazard" for f in r["new_facts"])
        ]
        assert hazard_ticks and min(hazard_ticks) == 2
        # once the coffee is carried away the hazard premises fail
        assert result.runtime.last_hazards == []

    def test_hazard_fact_has_full_salience_in_wm(self):
        result = run_bundled("waterleak")
        # hazards are injected at salience 1.0 on the tick they appear
        hazard_rows = [
            r for r in rows(result) if any(f[1] == "hazard" for f in r["new_facts"])
        ]
        assert hazard_rows


class TestDirectiveFlow:
    def test_prediction_decay_applied(self):
        result = run_bundled("teleport_fault")
        assert result.runtime.prediction_confidence < 1.0

    def test_weights_drift_recorded_per_tick(self):
        result = run_bundled("teleport_fault")
        by_tick = {r["tick"]: r["weights"] for r in rows(result)}
        assert by_tick[3] == {
            "temporal": 0.333333, "spatial": 0.333333, "conceptual": 0.333333,
        }
        assert by_tick[4]["temporal"] > by_tick[3]["temporal"]


class TestScenarioAssertedFacts:
    SCN = """
grid 6 6
region clinic 0 0 5 5
agent robot1 0 0
entity p1 3 3 category=person
fact p1 wears scrubs
task navigate target=p1
"""

    def test_asserted_facts_feed_inference(self):
        scenario = parse_scenario(self.SCN)
        runtime = AgentRuntime(scenario, EngineConfig())
        runtime.bootstrap()
        role = runtime.unified.graph.get("p1", "has_role", "nurse")
        assert role is not None
        assert role.origin == "derived"

    def test_contradictions_cover_composed_facts(self):
        with open(scenario_path("vase_room"), encoding="utf-8") as fh:
            text = fh.read() + "fact bed1 LeftOf vase1\n"
        runtime = AgentRuntime(parse_scenario(text), EngineConfig())
        runtime.bootstrap()
        # LeftOf(vase1, bed1) exists only by composition (OnTopOf ∘ LeftOf)
        pairs = {
            (a.key(), b.key(), b.origin) for a, b in runtime.unified.contradictions
        }
        assert (
            ("bed1", "LeftOf", "vase1"), ("vase1", "LeftOf", "bed1"), "derived"
        ) in pairs

    def test_rule_conclusion_raises_weaker_asserted_fact_in_unified_graph(self):
        path = scenario_path("fetch_close")
        with open(path, encoding="utf-8") as fh:
            text = fh.read() + (
                "fact zz9 isa cup\n"
                "fact zz9 has_state knocked_over\n"
                "fact zz9 Contains ball1\n"
                "fact ball1 has_state spilled 0.2\n"
            )
        result = run_scenario(
            parse_scenario(text, path), EngineConfig(), seed=0,
            planner_factory=scripted_planner_factory, scenario_text=text,
        )
        # knockover-spill concludes has_state(ball1, spilled) at 0.9, which
        # max-merges over the asserted 0.2 and stays in the unified graph
        spilled = result.runtime.unified.graph.get("ball1", "has_state", "spilled")
        assert (spilled.confidence, spilled.origin) == (0.9, "derived")
        assert result.runtime.ltm.semantic.get("ball1", "has_state", "spilled").confidence == 0.9
        # the key was asserted before chaining, so no tick reports it as new
        assert not any(
            f[:3] == ["ball1", "has_state", "spilled"]
            for r in rows(result) for f in r["new_facts"]
        )


class TestWorkingMemoryFlow:
    def test_task_objects_present_in_wm_at_planning_time(self):
        from conftest import scenario_path
        from gridmind.decide import interpret_task
        from gridmind.world import load_scenario

        scenario = load_scenario(scenario_path("arrange"))
        runtime = AgentRuntime(scenario, EngineConfig())
        runtime.task = interpret_task(scenario.tasks[0], scenario)
        runtime.bootstrap()
        subjects = {f.key()[0] for f in runtime.wm.snapshot_facts()}
        assert {"plate_b3", "cup_b1", "table1", "robot1"} <= subjects
        keys = {f.key() for f in runtime.wm.snapshot_facts()}
        assert ("cup_b1", "has_state", "fragile") in keys
        assert ("plate_b3", "color", "blue") in keys

    def test_wm_size_recorded_and_bounded(self):
        result = run_bundled("arrange")
        for r in rows(result):
            assert 0 <= r["wm"] <= EngineConfig().wm_capacity


class TestTickBudget:
    def test_max_ticks_aborts_run(self):
        cfg = EngineConfig(max_ticks=3)
        result = run_bundled("arrange", config=cfg)
        assert result.outcome == "aborted"
        assert result.exit_code == 2
        assert result.runtime.world.tick <= 3


class TestReplanOnWobble:
    SCN = """
grid 5 5
region room 0 0 4 4
agent robot1 2 2
entity cup1 2 3 category=cup flags=fragile
entity plate1 1 2 category=plate
entity box1 3 2 category=box
task fetch object=plate1 to=box1
"""

    def test_instability_triggers_replan_and_halts_cycle(self):
        from gridmind.decide import Plan, PlanStep, interpret_task
        from gridmind.agent import run_task
        from gridmind.world import Action

        scenario = parse_scenario(self.SCN)
        runtime = AgentRuntime(scenario, EngineConfig())
        runtime.bootstrap()
        task = interpret_task(scenario.tasks[0], scenario)

        def wobbly_planner(query):
            # places a sturdy plate onto the fragile cup before the goal step
            return Plan(
                steps=[
                    PlanStep(action=Action("PickUp", ("plate1",))),
                    PlanStep(action=Action("PlaceOn", ("plate1", "cup1"))),
                    PlanStep(action=Action("PickUp", ("plate1",))),
                    PlanStep(action=Action("PlaceOn", ("plate1", "box1"))),
                ],
            )

        task_run = run_task(runtime, task, wobbly_planner)
        assert task_run.outcome == "aborted"
        assert len(task_run.episodes) == EngineConfig().replan_limit
        first = task_run.episodes[0]
        # halted right after the wobble: steps 3 and 4 never executed
        assert len(first.results) == 2
        assert first.results[-1]["status"] == "ok"
        assert first.results[-1]["flags"] == ["instability"]
        assert "broken" in runtime.world.entities["cup1"].flags
        replans = [
            d for row in runtime.rows for d in row["directives"]
            if d["kind"] == "TriggerReplan"
        ]
        assert replans


class TestStaleWorkingMemory:
    SCN = """
grid 10 8
region room 0 0 9 7
agent robot1 0 7
entity cup1 4 3 category=cup
entity marker1 9 0 category=marker
at 1 set cup1 knocked_over
at 2 clear cup1 knocked_over
task navigate target=cup1
config stale_ttl 2
"""

    def test_untouched_goal_relevant_fact_goes_stale(self):
        from gridmind.decide import interpret_task
        from gridmind.agent import run_task
        from gridmind.decide import plan_scripted

        scenario = parse_scenario(self.SCN)
        config = EngineConfig().with_overrides(dict(scenario.config_overrides))
        runtime = AgentRuntime(scenario, config)
        task = interpret_task(scenario.tasks[0], scenario)
        runtime.task = task
        runtime.bootstrap()
        run_task(runtime, task, plan_scripted)
        # keep perceiving after the flag clears until the fact ages out
        from gridmind.world import Action
        for _ in range(5):
            runtime.tick(Action("Wait"))
        stale_rows = [
            row for row in runtime.rows
            if any(a["kind"] == "StaleWorkingMemory" for a in row["anomalies"])
        ]
        assert stale_rows
        kinds = {d["kind"] for row in stale_rows for d in row["directives"]}
        assert "RetrieveFromLTM" in kinds


class TestMultiTaskScenario:
    SCN = """
grid 8 8
region room 0 0 7 7
agent robot1 0 0
entity ball1 5 5 category=ball
entity box1 2 5 category=box
entity marker1 7 0 category=marker
task navigate target=marker1
task fetch object=ball1 to=box1
"""

    def test_tasks_run_sequentially_with_separate_episodes(self):
        from gridmind.agent import run_scenario, scripted_planner_factory
        import json

        scenario = parse_scenario(self.SCN)
        result = run_scenario(
            scenario, EngineConfig(), seed=0,
            planner_factory=scripted_planner_factory, scenario_text=self.SCN,
        )
        assert result.outcome == "success"
        assert [run.task.kind for run in result.task_runs] == ["navigate", "fetch"]
        assert all(run.outcome == "success" for run in result.task_runs)
        summary = json.loads(result.lines[-1])
        assert [e["task"] for e in summary["episodes"]] == ["navigate", "fetch"]
        assert result.runtime.world.entities["ball1"].on == "box1"


@pytest.mark.parametrize("name", BUNDLED)
def test_sequence_model_equals_training_on_whole_stream(name):
    # the runtime trains on each tick's new kinds as they arrive; the
    # counts must be those of one pass over everything it observed
    runtime = run_bundled(name).runtime
    model = train_sequence_model(EventSequenceModel(runtime.seq_model.order), runtime.stream)
    assert runtime.seq_model.counts == model.counts
    assert runtime.seq_model.kinds == model.kinds


@pytest.mark.parametrize("name", BUNDLED + ["crowded", "traffic"])
def test_every_fact_the_engine_keeps_is_valid(monkeypatch, name):
    # keys are made without the symbol check, which validation keeps doing
    # where facts enter; so everything derived from them is valid too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    unified = []
    aggregate = agent_module.aggregate

    def recording(*lists):
        out = aggregate(*lists)
        unified.append(out)
        return out

    monkeypatch.setattr(agent_module, "aggregate", recording)
    result = _generated_run(name) if name in ("crowded", "traffic") else run_bundled(name)
    runtime = result.runtime
    assert len(unified) == runtime.world.tick + 1
    facts = [f for u in unified for f in u.graph]
    facts += runtime.wm.snapshot_facts() + list(runtime.ltm.semantic)
    for fact in facts:
        fact.validate()
        assert fact.key() == (fact.subject, fact.relation, canonical.fmt_literal(fact.obj))


@pytest.mark.parametrize(
    "name, seed", [(n, 0) for n in BUNDLED] + [(k, s) for k in ("crowded", "traffic") for s in (1, 2, 3)]
)
def test_working_memory_matches_the_sorting_oracle_after_every_insert(monkeypatch, name, seed):
    # WM contents reach the trace only through its size, plans and LTM, so
    # the golden hashes alone could miss a wrong item: every insert is
    # mirrored into the oracle and the two compared item for item
    monkeypatch.syspath_prepend(str(PERFBENCH))
    insert = WorkingMemory.insert
    mirrors: dict[WorkingMemory, SortingWorkingMemory] = {}

    def mirrored(wm, fact, salience, tick):
        insert(wm, fact, salience, tick)
        oracle = mirrors.setdefault(wm, SortingWorkingMemory(wm.capacity, wm.decay))
        oracle.insert(fact, salience, tick)
        assert [(i.fact, type(i.fact.obj), i.salience, i.touched) for i in wm.items()] == oracle.rows()

    monkeypatch.setattr(WorkingMemory, "insert", mirrored)
    result = run_bundled(name) if name in BUNDLED else _generated_run(name, seed)
    assert list(mirrors) == [result.runtime.wm]


def test_packaged_rules_are_loaded_once_and_cannot_be_changed():
    data = RuleData.load_default()
    assert RuleData.load_default() is data
    assert {data: 1}[RuleData.load_default()] == 1  # hashed by identity
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.hazard_rules = ()
    with pytest.raises(TypeError):
        data.lexicon["cup"] = ()
    assert type(data.dependency_rules) is tuple and type(data.exclusions) is tuple


def collision_facts(trajectories, epsilon, tick=7):
    # _collision_facts reads nothing of the runtime but its config's epsilon;
    # a stand-in config holds an epsilon finer than the six-decimal echo
    runtime = SimpleNamespace(config=SimpleNamespace(collision_epsilon=epsilon))
    return AgentRuntime._collision_facts(runtime, trajectories, tick)


@st.composite
def movers(draw):
    """Trajectories as the tick predicts them, on grids of 1x1 to 30x30 with
    horizons of 1 to 8: up to 25 movers, most of them starting in one of a
    few cells, at one of three ticks, so that they share cells and ticks."""
    width, height = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    horizon = draw(st.integers(1, 8))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    hot = draw(st.lists(cell, min_size=1, max_size=3))
    start = st.sampled_from(hot) | cell
    trajectories = {}
    for k in range(draw(st.integers(0, 25))):
        x, y = draw(start)
        tick = draw(st.integers(1, 3))
        history = [(tick, (x, y))]
        if draw(st.booleans()):  # else one observation: a stationary guess
            dx, dy = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            history.insert(0, (tick - 1, (x - dx, y - dy)))
        name = f"m{k:02d}"
        trajectories[name] = predict_trajectory(name, history, horizon, (width, height))
    epsilon = draw(
        st.sampled_from([1e-9, 0.5, 1.0, 2**0.5, 2.0, 3.0])
        | st.floats(min_value=1e-9, max_value=float(max(width, height)))
    )
    return trajectories, epsilon


@settings(max_examples=300, deadline=None)
@given(movers())
def test_collision_facts_match_the_all_pairs_oracle(case):
    trajectories, epsilon = case
    assert collision_facts(trajectories, epsilon) == all_pairs_collision_facts(trajectories, epsilon, 7)


def test_collision_checks_only_pairs_in_neighbouring_cells(monkeypatch):
    checked = []
    detect = reason.detect_collision

    def counting(a, b, epsilon):
        checked.append((a.entity, b.entity))
        return detect(a, b, epsilon)

    monkeypatch.setattr(reason, "detect_collision", counting)
    # twelve movers in lanes five apart, and one beside the first
    trajectories = {
        f"m{k:02d}": predict_trajectory(f"m{k:02d}", [(0, (5 * k, 0)), (1, (5 * k, 1))], 5, (60, 40))
        for k in range(12)
    }
    trajectories["m99"] = predict_trajectory("m99", [(0, (1, 0)), (1, (1, 1))], 5, (60, 40))
    facts = collision_facts(trajectories, 1.5)
    assert checked == [("m00", "m99")]
    assert [(f.subject, f.obj) for f in facts] == [("m00", "m99")]
    # four movers make six pairs, within one neighbourhood's nine cells: all are tested
    checked.clear()
    assert collision_facts({k: trajectories[k] for k in ("m00", "m01", "m02", "m03")}, 1.5) == []
    assert len(checked) == 6

