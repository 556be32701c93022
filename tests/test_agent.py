"""Whole-loop integration: attention, hazards, directives, memory flow."""

from __future__ import annotations

import json

import pytest

from conftest import BUNDLED, run_bundled
from gridmind.agent import AgentRuntime
from gridmind.config import EngineConfig
from gridmind.reason import EventSequenceModel, train_sequence_model
from gridmind.world import parse_scenario


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
                source="external",
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
