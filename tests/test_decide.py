"""Task interpretation, planner queries, and the scripted planner."""

from __future__ import annotations

import json

import pytest

from conftest import episode_rows, run_bundled, scenario_path
from gridmind.decide import (
    PlannerQuery,
    TaskError,
    formulate_query,
    interpret_task,
    plan_scripted,
)
from gridmind.kb import Fact
from gridmind.memory import WorkingMemory
from gridmind.world import TaskSpec, WorldState, load_scenario, parse_scenario


@pytest.fixture(scope="module")
def arrange_scenario():
    return load_scenario(scenario_path("arrange"))


@pytest.fixture(scope="module")
def waterleak_scenario():
    return load_scenario(scenario_path("waterleak"))


class TestInterpretTask:
    def test_arrange_synthesizes_three_goal_conditions(self, arrange_scenario):
        task = interpret_task(arrange_scenario.tasks[0], arrange_scenario)
        assert [g.kind for g in task.goal] == [
            "grouped_by_color", "sizes_descending", "fragile_topmost",
        ]
        assert "cup_b1" in task.params["objects"]

    def test_fix_hazard_goal_clears_zone(self, waterleak_scenario):
        task = interpret_task(waterleak_scenario.tasks[0], waterleak_scenario)
        assert {(g.kind, g.args) for g in task.goal} == {
            ("zone_clear", ("kitchen", "leaking")),
            ("zone_clear", ("kitchen", "wet")),
        }
        assert {"sink1", "water1", "wire1"} <= task.task_refs

    def test_fix_hazard_refs_are_the_entities_the_goal_checks(self):
        # cup1 is declared in the hall but settles onto table1 in the kitchen,
        # where the goal needs it dry
        scenario = parse_scenario(
            "version 1\ngrid 10 8\nregion kitchen 0 0 4 7\nregion hall 5 0 9 7\n"
            "agent robot1 4 6\nentity table1 2 2 category=table\n"
            "entity cup1 7 2 category=cup flags=wet on=table1\ntask fix_hazard zone=kitchen\n"
        )
        task = interpret_task(scenario.tasks[0], scenario)
        assert WorldState(scenario).entities_in_region("kitchen") == ["cup1", "robot1", "table1"]
        assert not task.goal_satisfied(WorldState(scenario))
        assert task.task_refs == {"cup1", "robot1", "table1"}

    def test_unknown_sort_key_rejected(self, arrange_scenario):
        spec = TaskSpec(kind="arrange", params={"surface": "table1", "sort": "weight"})
        with pytest.raises(TaskError) as exc:
            interpret_task(spec, arrange_scenario)
        assert "weight" in str(exc.value)

    def test_unknown_kind_rejected(self, arrange_scenario):
        with pytest.raises(TaskError):
            interpret_task(TaskSpec(kind="juggle", params={}), arrange_scenario)

    def test_navigate_unknown_target_rejected(self, arrange_scenario):
        with pytest.raises(TaskError):
            interpret_task(TaskSpec(kind="navigate", params={"target": "ghost"}), arrange_scenario)

    SCENE = (
        "version 1\ngrid 6 6\nregion room 0 0 5 5\nagent robot1 0 0\n"
        "entity box1 2 3 category=box color=red size=2\nentity table1 4 4 category=table\n"
    )

    @pytest.mark.parametrize("task, message", [
        ("navigate target=robot1", "navigate: target 'robot1' is the agent"),
        ("navigate target=ghost", "navigate: unknown target 'ghost'"),
        ("navigate", "navigate: unknown target None"),
        ("fetch object=robot1 to=box1", "fetch: object 'robot1' is the agent"),
        ("fetch object=box1 to=box1", "fetch: destination 'box1' is the object"),
        ("fetch object=ghost to=box1", "fetch: unknown object 'ghost'"),
        ("fetch object=box1 to=ghost", "fetch: unknown destination 'ghost'"),
        ("arrange surface=robot1", "arrange: surface 'robot1' is the agent"),
        ("arrange surface=ghost", "arrange: unknown surface 'ghost'"),
        ("arrange surface=table1 objects=robot1", "arrange: object 'robot1' is the agent"),
        ("arrange surface=table1 objects=box1,table1", "arrange: object 'table1' is the surface"),
        ("arrange surface=table1 objects=box1,ghost", "arrange: unknown object 'ghost'"),
    ])
    def test_task_naming_an_entity_it_cannot_act_on_is_refused(self, task, message):
        scenario = parse_scenario(self.SCENE + f"task {task}\n")
        with pytest.raises(TaskError) as exc:
            interpret_task(scenario.tasks[0], scenario)
        assert str(exc.value) == message

    @pytest.mark.parametrize("task", [
        "navigate target=box1",
        "fetch object=box1 to=table1",
        "fetch object=box1 to=robot1",
        "arrange surface=table1 objects=box1",
    ])
    def test_task_naming_entities_it_can_act_on_is_accepted(self, task):
        scenario = parse_scenario(self.SCENE + f"task {task}\n")
        assert interpret_task(scenario.tasks[0], scenario).kind == task.split()[0]


class TestFormulateQuery:
    def _task(self, scenario):
        return interpret_task(scenario.tasks[0], scenario)

    def test_empty_wm_yields_empty_snapshot_full_task(self, arrange_scenario):
        query = formulate_query(WorkingMemory(), self._task(arrange_scenario), [], [])
        assert query.facts == []
        assert query.task["kind"] == "arrange"
        assert query.actions

    def test_snapshot_lists_exactly_wm_facts_in_canonical_order(self, arrange_scenario):
        wm = WorkingMemory()
        wm.insert(Fact("b", "isa", "x", 1.0, 0, "perceived"), 0.5, 0)
        wm.insert(Fact("a", "isa", "x", 1.0, 0, "perceived"), 0.9, 0)
        wm.insert(Fact("c", "isa", "x", 1.0, 0, "perceived"), 0.1, 0)
        query = formulate_query(wm, self._task(arrange_scenario), [], [])
        assert [row[0] for row in query.facts] == ["a", "b", "c"]

    def test_hazard_block_precedes_facts_in_wire_layout(self, arrange_scenario):
        hazard = Fact("wire1", "hazard", "electrocution", 0.95, 3, "derived")
        query = formulate_query(WorkingMemory(), self._task(arrange_scenario), [hazard], [])
        line = query.to_wire_line()
        payload = json.loads(line)
        assert payload["hazards"] == [["wire1", "hazard", "electrocution", 0.95, 3]]
        keys = list(payload)
        assert keys.index("hazards") < keys.index("facts")
        assert keys[0] == "version" and payload["version"] == 1

    def test_wire_line_floats_have_six_decimals(self, arrange_scenario):
        hazard = Fact("wire1", "hazard", "electrocution", 0.95, 3, "derived")
        query = formulate_query(WorkingMemory(), self._task(arrange_scenario), [hazard], [])
        assert "0.950000" in query.to_wire_line()


def _query(task_dict, facts, hazards=()):
    return PlannerQuery(
        task=task_dict,
        hazards=[list(h) for h in hazards],
        facts=[list(f) for f in facts],
        episodes=[],
        actions=[],
    )


ARRANGE_TASK = {
    "kind": "arrange",
    "agent": "robot1",
    "params": {
        "surface": "table1",
        "sort": "color,size",
        "constraint": "fragile_on_top",
        "objects": "cup_f1,plate_a3,plate_b2",
    },
}


def _arrange_facts():
    rows = [
        ("robot1", "at", "0,0"),
        ("table1", "at", "2,2"),
        ("plate_a3", "at", "0,1"),
        ("plate_b2", "at", "1,0"),
        ("cup_f1", "at", "1,1"),
        ("plate_a3", "color", "blue"),
        ("plate_b2", "color", "blue"),
        ("cup_f1", "color", "blue"),
        ("plate_a3", "size", 3),
        ("plate_b2", "size", 2),
        ("cup_f1", "size", 1),
        ("cup_f1", "has_state", "fragile"),
    ]
    return [[s, r, o, 1.0, 0] for s, r, o in rows]


class TestScriptedPlanner:
    def test_fragile_cup_stacked_last_on_plates(self):
        plan = plan_scripted(_query(ARRANGE_TASK, _arrange_facts()))
        places = [s.action.args for s in plan if s.action.name == "PlaceOn"]
        assert places == [
            ("plate_a3", "table1"),
            ("plate_b2", "plate_a3"),
            ("cup_f1", "plate_b2"),
        ]

    def test_purity_identical_query_identical_plan(self):
        q1 = _query(ARRANGE_TASK, _arrange_facts())
        q2 = _query(ARRANGE_TASK, _arrange_facts())
        assert q1.to_wire_line() == q2.to_wire_line()
        p1, p2 = plan_scripted(q1), plan_scripted(q2)
        assert [s.to_record() for s in p1] == [s.to_record() for s in p2]

    FIX_TASK = {
        "kind": "fix_hazard",
        "agent": "robot1",
        "params": {"zone": "kitchen"},
    }

    def _leak_facts(self):
        rows = [
            ("robot1", "at", "3,3"),
            ("sink1", "at", "1,1"),
            ("water1", "at", "2,2"),
            ("wire1", "at", "3,2"),
            ("sink1", "located_in", "kitchen"),
            ("water1", "located_in", "kitchen"),
            ("wire1", "located_in", "kitchen"),
            ("sink1", "has_state", "leaking"),
            ("water1", "has_state", "wet"),
            ("wire1", "has_state", "powered"),
        ]
        return [[s, r, o, 1.0, 0] for s, r, o in rows]

    def test_cutpower_precedes_remediation_with_hazards(self):
        hazards = [["wire1", "hazard", "electrocution", 0.95, 0]]
        plan = plan_scripted(_query(self.FIX_TASK, self._leak_facts(), hazards))
        names = [s.action.name for s in plan if s.action.name != "Move"]
        assert names.index("CutPower") < names.index("FixLeak")
        assert names.index("CutPower") < names.index("Mop")

    def test_no_hazard_block_no_cutpower(self):
        plan = plan_scripted(_query(self.FIX_TASK, self._leak_facts(), hazards=()))
        names = {s.action.name for s in plan}
        assert "CutPower" not in names
        assert {"FixLeak", "Mop"} <= names


class TestExecution:
    # a fetch_close run_task, its task line swapped for `task_line`, and
    # the run's tick rows
    @staticmethod
    def _run_task(planner, task_line="task fetch object=ball1 to=box1", **config):
        from gridmind.agent import AgentRuntime, run_task
        from gridmind.config import EngineConfig
        from gridmind.world import parse_scenario

        with open(scenario_path("fetch_close"), encoding="utf-8") as fh:
            text = fh.read().replace("task fetch object=ball1 to=box1", task_line)
        scenario = parse_scenario(text)
        runtime = AgentRuntime(scenario, EngineConfig(**config))
        runtime.bootstrap()
        task_run = run_task(runtime, interpret_task(scenario.tasks[0], scenario), planner)
        return task_run, runtime.rows

    @staticmethod
    def _waits(n):
        from gridmind.decide import PlanStep
        from gridmind.world import Action

        return [PlanStep(action=Action("Wait")) for _ in range(n)]

    def test_happy_path_single_episode(self):
        result = run_bundled("fetch_close")
        assert result.outcome == "success"
        episodes = result.task_runs[0].episodes
        assert len(episodes) == 1
        assert episodes[0].outcome == "success"

    def test_failed_step_halts_cycle_and_replans_once(self):
        result = run_bundled("pickup_fail")
        episodes = result.task_runs[0].episodes
        assert [e.outcome for e in episodes] == ["failure", "success"]
        results = [row["result"] for row in episode_rows(result.runtime.rows, episodes[0])]
        failed_steps = [r for r in results if r["status"] == "failed"]
        assert len(failed_steps) == 1
        # the failed PickUp is the last executed step of its cycle
        assert results[-1]["status"] == "failed"
        assert len(results) < len(episodes[0].plan_steps)

    def test_replan_limit_aborts(self):
        # planner that always fails validation -> five failed cycles -> abort
        from gridmind.config import EngineConfig
        from gridmind.decide import PlannerError

        def broken_planner(query):
            raise PlannerError("planner_error", "stub refuses")

        task_run, rows = self._run_task(broken_planner)
        assert task_run.outcome == "aborted"
        assert len(task_run.episodes) == EngineConfig().replan_limit
        assert [e.outcome for e in task_run.episodes[:-1]] == ["failure"] * 4
        assert task_run.episodes[-1].outcome == "aborted"
        assert all(e.planner_error == ("planner_error", "stub refuses") for e in task_run.episodes)
        assert not any(episode_rows(rows, e) for e in task_run.episodes)

    def test_empty_plan_whose_goal_holds_is_success(self):
        # robot1 starts within reach of box1
        task_run, rows = self._run_task(lambda query: self._waits(0), "task navigate target=box1")
        assert task_run.outcome == "success"
        (episode,) = task_run.episodes
        assert episode.outcome == "success"
        assert episode_rows(rows, episode) == []
        assert episode.start_tick == episode.end_tick == 0

    def test_plan_run_out_short_of_goal_fails_then_aborts_on_last_cycle(self):
        task_run, rows = self._run_task(lambda query: self._waits(1), replan_limit=3)
        assert task_run.outcome == "aborted"
        assert [e.outcome for e in task_run.episodes] == ["failure", "failure", "aborted"]
        assert [len(episode_rows(rows, e)) for e in task_run.episodes] == [1, 1, 1]
        assert [e.end_tick for e in task_run.episodes] == [1, 2, 3]

    def test_planner_error_fails_cycle_and_success_beats_last_cycle_abort(self):
        from gridmind.decide import PlannerError

        calls = []

        def flaky_planner(query):
            calls.append(query)
            if len(calls) == 1:
                raise PlannerError("planner_error", "stub refuses once")
            return plan_scripted(query)

        task_run, rows = self._run_task(flaky_planner, replan_limit=2)
        assert task_run.outcome == "success"
        assert [e.outcome for e in task_run.episodes] == ["failure", "success"]
        first, second = task_run.episodes
        assert first.plan_steps == [] and episode_rows(rows, first) == []
        assert first.start_tick == first.end_tick == 0
        assert first.planner_error == ("planner_error", "stub refuses once")
        assert second.planner_error is None

    def test_tick_budget_spent_mid_plan_aborts(self):
        task_run, rows = self._run_task(lambda query: self._waits(5), max_ticks=3)
        assert task_run.outcome == "aborted"
        (episode,) = task_run.episodes
        assert episode.outcome == "aborted"
        assert len(episode.plan_steps) == 5
        assert len(episode_rows(rows, episode)) == 3
        assert episode.end_tick == 3

    def test_goal_checked_against_ground_truth(self):
        result = run_bundled("arrange")
        world = result.runtime.world
        task = result.task_runs[0].task
        assert task.goal_satisfied(world)
        stacks = world.stacks_on("table1")
        colors = []
        for stack in stacks:
            stack_colors = {world.entities[e].attributes["color"] for e in stack}
            assert len(stack_colors) == 1
            colors.append(stack_colors.pop())
        assert sorted(colors) == ["blue", "green", "red"]
