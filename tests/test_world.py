"""Gridworld simulator: scenario loading, stepping, observation."""

from __future__ import annotations

import copy
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUNDLED, run_bundled, scenario_path
from gridmind.world import (
    GRID_DIRECTIONS,
    Action,
    ScenarioError,
    WorldState,
    load_scenario,
    parse_scenario,
)
from oracles import anchor_roots, occluded_entities

MINIMAL = """
grid 6 6
region room 0 0 5 5
agent robot1 0 0
entity cup1 2 2 category=cup flags=fragile
entity plate1 2 3 category=plate size=3
entity table1 4 4 category=table
"""


def world(text=MINIMAL, seed=0, noise=False):
    return WorldState(parse_scenario(text), seed=seed, noise=noise)


class TestLoading:
    def test_bundled_arrange_scenario_loads(self):
        scenario = load_scenario(scenario_path("arrange"))
        sized = [
            e for e, s in scenario.entities.items()
            if "color" in s.attributes and "size" in s.attributes
        ]
        assert len(sized) >= 5
        assert scenario.agent == "robot1"
        assert scenario.tasks[0].kind == "arrange"

    def test_out_of_grid_position_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("grid 4 4\nagent robot1 0 0\nentity x1 -1 0\n")

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("")
        assert "grid" in str(exc.value)

    def test_agent_required(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("grid 4 4\nentity x1 0 0\n")
        assert "agent" in str(exc.value)

    def test_version_that_is_no_integer_rejected(self):
        # "²" is a digit to str.isdigit but not to int()
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("version \u00b2\ngrid 4 4\nagent robot1 0 0\n")
        assert ":1:" in str(exc.value)

    def test_duplicate_entity_id_rejected(self):
        text = "grid 4 4\nagent robot1 0 0\nentity x1 1 1\nentity x1 2 2\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert ":4:" in str(exc.value)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("grid 4 4\nagent robot1 0 0\nentity x1 1 1 weight=9\n")
        assert "weight" in str(exc.value)

    def test_event_on_unknown_entity_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("grid 4 4\nagent robot1 0 0\nat 3 set ghost hot\n")

    def test_support_cycle_rejected(self):
        text = (
            "grid 4 4\nagent robot1 0 0\n"
            "entity a 1 1 on=b\nentity b 1 1 on=a\n"
        )
        with pytest.raises(ScenarioError):
            parse_scenario(text)


class TestStep:
    def test_pickup_out_of_range_fails_world_unchanged(self):
        w = world()
        before = {e: s.position for e, s in w.entities.items()}
        result = w.step(Action("PickUp", ("table1",)))
        assert result.failed and result.reason == "out_of_range"
        assert w.tick == 1
        assert {e: s.position for e, s in w.entities.items()} == before

    def test_place_on_extends_stack(self):
        w = world()
        w.entities["robot1"].position = (2, 2)
        w.step(Action("PickUp", ("cup1",)))
        assert w.carrying == "cup1"
        w.entities["robot1"].position = (4, 4)
        result = w.step(Action("PlaceOn", ("cup1", "table1")))
        assert result.status == "ok"
        assert w.entities["cup1"].on == "table1"
        assert w.stacks_on("table1") == [["cup1"]]

    def test_heavy_on_fragile_breaks_and_wobbles(self):
        w = world()
        w.entities["robot1"].position = (2, 2)
        w.step(Action("PickUp", ("cup1",)))
        w.entities["robot1"].position = (4, 4)
        w.step(Action("PlaceOn", ("cup1", "table1")))
        w.entities["robot1"].position = (2, 3)
        w.step(Action("PickUp", ("plate1",)))
        w.entities["robot1"].position = (4, 4)
        result = w.step(Action("PlaceOn", ("plate1", "cup1")))
        assert w.entities["plate1"].on == "cup1"
        assert "broken" in w.entities["cup1"].flags
        assert "instability" in result.flags

    def test_wait_changes_only_tick(self):
        w = world()
        before = {e: (s.position, set(s.flags)) for e, s in w.entities.items()}
        result = w.step(Action("Wait"))
        assert result.status == "ok"
        assert w.tick == 1
        assert result.delta == []
        assert {e: (s.position, set(s.flags)) for e, s in w.entities.items()} == before

    def test_move_out_of_bounds_fails(self):
        w = world()
        result = w.step(Action("Move", ("N",)))
        assert result.failed and result.reason == "out_of_bounds"

    def test_pickup_under_stack_fails(self):
        w = world()
        w.entities["robot1"].position = (2, 2)
        w.step(Action("PickUp", ("cup1",)))
        w.entities["robot1"].position = (4, 4)
        w.step(Action("PlaceOn", ("cup1", "table1")))
        w.entities["robot1"].position = (3, 4)
        w.step(Action("PickUp", ("table1",)))
        result = w.step(Action("PickUp", ("table1",)))
        assert result.failed and result.reason == "stacked_under"

    def test_cutpower_mop_fixleak(self):
        text = (
            "grid 6 6\nagent robot1 1 1\n"
            "entity wire1 1 2 category=wire flags=powered\n"
            "entity water1 2 1 category=water flags=wet\n"
            "entity sink1 0 1 category=sink flags=leaking\n"
        )
        w = world(text)
        r1 = w.step(Action("CutPower", ("wire1",)))
        assert r1.status == "ok" and "powered" not in w.entities["wire1"].flags
        r2 = w.step(Action("Mop", ("2", "1")))
        assert r2.status == "ok" and "wet" not in w.entities["water1"].flags
        r3 = w.step(Action("FixLeak", ("sink1",)))
        assert r3.status == "ok" and "leaking" not in w.entities["sink1"].flags
        r4 = w.step(Action("CutPower", ("wire1",)))
        assert r4.failed and r4.reason == "not_powered"
        r5 = w.step(Action("FixLeak", ("sink1",)))
        assert r5.failed and r5.reason == "not_leaking"

    def test_scripted_events_fire_after_action(self):
        text = MINIMAL + "at 2 set cup1 hot\nat 3 teleport cup1 5 5\n"
        w = world(text)
        w.step(Action("Wait"))
        assert "hot" not in w.entities["cup1"].flags
        result = w.step(Action("Wait"))
        assert "hot" in w.entities["cup1"].flags
        assert [f.key() for f in result.delta] == [("cup1", "has_state", "hot")]
        w.step(Action("Wait"))
        assert w.entities["cup1"].position == (5, 5)
        assert "moving" in w.entities["cup1"].flags

    def test_delta_lists_new_flags_then_position_per_entity(self):
        text = MINIMAL + "at 1 set plate1 wet\nat 1 set cup1 hot\nat 1 teleport cup1 3 2\n"
        result = world(text).step(Action("Move", ("S",)))
        assert [f.key() for f in result.delta] == [
            ("cup1", "has_state", "hot"),
            ("cup1", "has_state", "moving"),
            ("cup1", "at", "3,2"),
            ("plate1", "has_state", "wet"),
            ("robot1", "has_state", "moving"),
            ("robot1", "at", "0,1"),
        ]
        assert {(f.tick, f.origin) for f in result.delta} == {(1, "perceived")}

    def test_conservation_of_entities(self):
        w = world(MINIMAL + "at 1 velocity cup1 1 0\n")
        count = len(w.entities)
        rng = random.Random(0)
        for _ in range(15):
            direction = rng.choice(["N", "E", "S", "W", "NE", "SW"])
            w.step(Action("Move", (direction,)))
            assert len(w.entities) == count

    def test_unknown_action_fails(self):
        w = world()
        result = w.step(Action("Fly", ("up",)))
        assert result.failed and result.reason.startswith("unknown_action")


class TestDeterminism:
    def _run(self, seed, noise=False):
        w = world(MINIMAL + "at 1 velocity plate1 1 0\nat 4 set cup1 hot\n", seed, noise)
        seen = []
        for i in range(8):
            result = w.step(Action("Move", ("E" if i % 2 else "S",)))
            obs = w.observe()
            seen.append((tuple(result.delta), result.status, tuple(sorted(
                (e, r.position) for e, r in obs.readings.items()
            ))))
        return seen

    def test_identical_runs_identical_streams(self):
        assert self._run(7) == self._run(7)

    def test_noisy_observation_deterministic_given_seed(self):
        assert self._run(7, noise=True) == self._run(7, noise=True)

    def test_noise_actually_perturbs(self):
        clean = self._run(7, noise=False)
        noisy = self._run(7, noise=True)
        assert clean != noisy


class TestObservation:
    def test_noise_off_positions_are_ground_truth(self):
        w = world()
        obs = w.observe()
        for entity, reading in obs.readings.items():
            assert reading.position == w.entities[entity].position

    def test_stacked_under_entity_occluded(self):
        w = world()
        w.entities["robot1"].position = (2, 2)
        w.step(Action("PickUp", ("cup1",)))
        w.entities["robot1"].position = (4, 4)
        w.step(Action("PlaceOn", ("cup1", "table1")))
        # nothing on the cup yet: visible; table has the cup on it: occluded
        obs = w.observe()
        assert not obs.readings["cup1"].occluded
        assert obs.readings["table1"].occluded

    def test_contained_entity_occluded_with_position_only(self):
        text = (
            "grid 6 6\nagent robot1 0 0\n"
            "entity cup1 2 2 category=cup contains=liq1\n"
            "entity liq1 2 2 category=liquid\n"
        )
        obs = world(text).observe()
        assert obs.readings["liq1"].occluded
        assert obs.readings["liq1"].attributes is None
        assert obs.readings["liq1"].flags is None
        assert obs.readings["cup1"].contains == ("liq1",)


def test_stack_wellformedness_under_random_action_stream():
    rng = random.Random(11)
    w = world()
    actions = ["Move", "PickUp", "PlaceOn", "Wait"]
    names = list(w.entities)
    for _ in range(300):
        kind = rng.choice(actions)
        if kind == "Move":
            action = Action("Move", (rng.choice(["N", "E", "S", "W"]),))
        elif kind == "PickUp":
            action = Action("PickUp", (rng.choice(names),))
        elif kind == "PlaceOn":
            action = Action("PlaceOn", (rng.choice(names), rng.choice(names)))
        else:
            action = Action("Wait")
        w.step(action)
        # every stacked entity has exactly one support; no cycles
        for entity, state in w.entities.items():
            if state.on is not None:
                assert state.on in w.entities
                seen = {entity}
                cursor = state.on
                while cursor is not None:
                    assert cursor not in seen
                    seen.add(cursor)
                    cursor = w.entities[cursor].on
        for base in names:
            for chain in w.stacks_on(base):
                assert len(chain) == len(set(chain))


def test_scenario_fact_with_bad_confidence_rejected():
    text = "grid 4 4\nagent robot1 0 0\nfact a isa b 1.5\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert ":3:" in str(exc.value)


def test_scenario_fact_with_non_numeric_confidence_rejected():
    text = "grid 4 4\nagent robot1 0 0\nfact a isa b high\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert ":3:" in str(exc.value)


def test_contents_travel_with_their_container():
    text = (
        "grid 8 8\nagent robot1 2 2\n"
        "entity cup1 2 3 category=cup contains=liq1\n"
        "entity liq1 2 3 category=liquid\n"
        "entity box1 5 5 category=box\n"
    )
    w = world(text)
    w.step(Action("PickUp", ("cup1",)))
    w.step(Action("Move", ("SE",)))
    assert w.entities["liq1"].position == w.entities["cup1"].position
    assert w.entities["cup1"].position == w.entities["robot1"].position


def test_contained_entity_cannot_be_picked_up():
    text = (
        "grid 8 8\nagent robot1 2 2\n"
        "entity cup1 2 3 category=cup contains=liq1\n"
        "entity liq1 2 3 category=liquid\n"
    )
    w = world(text)
    result = w.step(Action("PickUp", ("liq1",)))
    assert result.failed and result.reason == "contained"


def test_contents_follow_their_container_at_any_depth():
    # n11 holds n10, which holds n09, and so on down to n00; the outermost
    # box sorts last, so carrying the contents along in id order would
    # move each level only one step per sweep
    boxes = "".join(
        f"entity n{k:02d} 1 1 category=box" + (f" contains=n{k - 1:02d}" if k else "") + "\n"
        for k in range(12)
    )
    w = world(f"grid 8 8\nagent robot1 6 6\n{boxes}at 1 velocity n11 1 0\n")
    w.step(Action("Wait"))
    w.step(Action("Wait"))
    assert {w.entities[f"n{k:02d}"].position for k in range(12)} == {(2, 1)}


@pytest.mark.parametrize(
    "lines, message",
    [
        ("entity a 1 1 contains=b\nentity b 1 1 contains=a\n", "containment cycle through entity"),
        ("entity a 1 1 contains=a\n", "containment cycle through entity 'a'"),
        (
            "entity a 1 1 contains=c\nentity b 1 1 contains=c\nentity c 1 1\n",
            "entity 'c' is contained by both 'a' and 'b'",
        ),
    ],
    ids=["two-cycle", "self", "two-containers"],
)
def test_containment_cycle_or_second_container_rejected(lines, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(f"grid 4 4\nagent robot1 0 0\n{lines}")


@pytest.mark.parametrize("noise", [False, True], ids=["exact", "noise-seed-4"])
@pytest.mark.parametrize("name", BUNDLED)
def test_observe_occludes_like_the_brute_force_oracle_and_reuses_equal_readings(
    monkeypatch, name, noise
):
    observed = []
    observe = WorldState.observe

    def checked(w):
        expected = occluded_entities(w)
        obs = observe(w)
        assert {e for e, r in obs.readings.items() if r.occluded} == expected
        observed.append(obs)
        return obs

    monkeypatch.setattr(WorldState, "observe", checked)
    run_bundled(name, seed=4 if noise else 0, noise=noise)
    assert len(observed) > 2
    reused = 0
    for before, after in zip(observed, observed[1:]):
        for entity, reading in after.readings.items():
            previous = before.readings[entity]
            assert (reading is previous) == (reading == previous)
            reused += reading is previous
    # under seed-4 noise every teleport_fault reading changes each tick: the
    # agent walks, the ball rolls, and the marker's reported cell jitters
    assert reused or (name, noise) == ("teleport_fault", True)


def test_a_move_a_pick_up_and_a_teleport_each_make_a_new_reading():
    text = MINIMAL + "at 2 teleport table1 5 5\n"
    w = world(text)
    w.entities["robot1"].position = (2, 1)
    first = w.observe().readings
    w.step(Action("Wait"))
    second = w.observe().readings
    assert all(second[e] is first[e] for e in first)
    assert not w.step(Action("PickUp", ("cup1",))).failed  # table1 teleports too
    third = w.observe().readings
    assert third["cup1"] is not second["cup1"] and "carried" in third["cup1"].flags
    assert third["table1"] is not second["table1"] and third["table1"].position == (5, 5)
    assert third["robot1"] is second["robot1"] and third["plate1"] is second["plate1"]
    w.step(Action("Move", ("E",)))
    fourth = w.observe().readings
    assert fourth["robot1"] is not third["robot1"] and fourth["robot1"].position == (3, 1)
    assert fourth["cup1"] is not third["cup1"]  # carried along
    assert fourth["table1"] is not third["table1"]  # its `moving` flag cleared
    assert fourth["plate1"] is third["plate1"]


STATE_CHANGES = """
grid 6 6
region room 0 0 5 5
agent robot1 1 1
entity cup1 1 1 category=cup
entity plate1 1 2 category=plate
entity box1 4 4 category=crate contains=pen1
entity pen1 0 0 category=pen
entity lamp1 5 0 category=lamp
at 2 set lamp1 powered
at 3 clear lamp1 powered
at 9 teleport box1 3 4
"""


def test_each_state_change_makes_a_new_reading_and_nothing_else_does():
    w = world(STATE_CHANGES)
    last = w.observe().readings
    steps = [
        (Action("Wait"), set()),
        (Action("Wait"), {"lamp1"}),  # set lamp1 powered
        (Action("Wait"), {"lamp1"}),  # clear it
        (Action("PickUp", ("cup1",)), {"cup1"}),  # carried, in the agent's cell
        (Action("PlaceOn", ("cup1", "plate1")), {"cup1", "plate1"}),  # moved onto plate1, now occluded
        (Action("Wait"), {"cup1"}),  # its moving flag cleared
        (Action("PickUp", ("cup1",)), {"cup1", "plate1"}),  # carried back; plate1 visible
        (Action("Wait"), {"cup1"}),
        (Action("Wait"), {"box1", "pen1"}),  # a teleported container takes its contents along
        (Action("Wait"), {"box1"}),  # the occluded pen1 shows no moving flag to clear
        (Action("Wait"), set()),
    ]
    for action, changed in steps:
        assert not w.step(action).failed, action
        readings = w.observe().readings
        assert {e for e in readings if readings[e] is not last[e]} == changed, (w.tick, action)
        for entity in changed:
            assert readings[entity] != last[entity]
            # the superseded reading keeps nothing but its fields
            assert set(vars(last[entity])) == set(vars(copy.copy(last[entity])))
        last = readings


@pytest.mark.parametrize(
    "change",
    [
        lambda cup: setattr(cup, "position", (3, 3)),
        lambda cup: cup.flags.add("hot"),
        lambda cup: cup.attributes.update(color="red"),
        lambda cup: setattr(cup, "contains", ("pen1",)),
        lambda cup: setattr(cup, "on", "lamp1"),
    ],
    ids=["position", "flags", "attributes", "contains", "on"],
)
def test_a_change_to_any_one_field_a_reading_shows_makes_a_new_reading(change):
    w = world(STATE_CHANGES)
    first = w.observe().readings
    assert w.observe().readings["cup1"] is first["cup1"]
    change(w.entities["cup1"])
    second = w.observe().readings
    assert second["cup1"] is not first["cup1"] and second["cup1"] != first["cup1"]
    assert all(second[e] is first[e] for e in first if e not in ("cup1", "lamp1"))


def test_a_noisy_still_entity_gets_a_new_reading_exactly_when_its_reported_cell_moves():
    w = world(STATE_CHANGES, seed=3, noise=True)
    history = [w.observe().readings]
    for _ in range(40):
        w.step(Action("Wait"))
        history.append(w.observe().readings)
    reused = back = 0
    for before, latest, after in zip(history, history[1:], history[2:]):
        for entity in ("cup1", "plate1", "lamp1"):
            moved = after[entity].position != latest[entity].position
            assert (after[entity] is not latest[entity]) == moved
            reused += not moved
            # jittered off the cell and back onto it: equal to the reading
            # two ticks before, yet a new one, since the one before differs
            if moved and after[entity].position == before[entity].position:
                assert after[entity] == before[entity] and after[entity] is not before[entity]
                back += 1
    assert reused and back


def test_riders_start_at_their_root_cell_and_stay_on_a_wait():
    # declared cells of stacked and contained entities are ignored: each
    # sits where the free entity at the end of its chain sits from tick 0
    text = (
        "grid 8 8\nagent robot1 7 7\n"
        "entity c 3 3 category=table\nentity b 1 1 on=c\nentity a 1 1 on=b\n"
        "entity x 5 5 contains=y\nentity y 0 5\n"
    )
    w = world(text)
    positions = {e: s.position for e, s in w.entities.items()}
    assert positions == {
        "a": (3, 3), "b": (3, 3), "c": (3, 3), "robot1": (7, 7), "x": (5, 5), "y": (5, 5),
    }
    assert w.step(Action("Wait")).delta == []
    assert {e: s.position for e, s in w.entities.items()} == positions


def test_riders_follow_a_tick_zero_teleport_of_their_root():
    text = (
        "grid 8 8\nagent robot1 7 7\nentity c 3 3 category=table contains=y\n"
        "entity b 3 3 on=c\nentity y 3 3\nat 0 teleport c 6 1\nat 0 teleport b 0 0\n"
    )
    w = world(text)
    assert {w.entities[e].position for e in "bcy"} == {(6, 1)}
    assert w.step(Action("Wait")).delta == []


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            "agent robot1 0 0\nentity c 1 1 on=a contains=b\nentity a 2 2 on=b\nentity b 3 3\n",
            "support or containment cycle through entity",
        ),
        (
            "agent robot1 0 0\nentity s 1 1 category=table\nentity x 2 2 contains=c\n"
            "entity c 1 1 on=s\n",
            "entity 'c' both rests on 's' and is contained by 'x'",
        ),
        ("entity s 1 1 category=table\nagent robot1 1 1 on=s\n", "agent 'robot1' rides on 's'"),
        ("entity b 1 1 category=box contains=robot1\nagent robot1 1 1\n", "agent 'robot1' rides on 'b'"),
        ("agent robot1 1 1\nentity c 1 1 category=cup on=robot1\n", "entity 'c' rests on the agent 'robot1'"),
    ],
    ids=["mixed-cycle", "on-and-contained", "agent-on", "agent-contained", "on-the-agent"],
)
def test_entity_with_no_single_finite_anchor_chain_rejected(lines, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(f"grid 4 4\n{lines}")


def test_second_entity_on_a_non_surface_rejected_with_its_line():
    text = (
        "grid 4 4\nagent robot1 0 0\nentity x 1 1 on=b\nentity t 1 1 category=table\n"
        "entity b 1 1 category=cup on=t\nentity y 1 1 on=b\n"
    )
    with pytest.raises(ScenarioError, match="entity 'y' rests on 'b', which already holds 'x'") as exc:
        parse_scenario(text, "two.scn")
    assert str(exc.value).startswith("two.scn:6: ")


def test_surface_holds_several_stacks_each_followed_to_its_top():
    text = (
        "grid 4 4\nagent robot1 0 0\nentity t 1 1 category=table\n"
        "entity b 1 1 category=cup on=t\nentity x 1 1 on=b\nentity y 1 1 on=t\n"
    )
    w = world(text)
    assert w.stacks_on("t") == [["b", "x"], ["y"]]
    assert w.stack_top("b") == "x"


def test_place_on_the_agent_fails_like_picking_it_up():
    w = world("grid 4 4\nagent robot1 1 1\nentity cup1 1 1 category=cup\n")
    assert w.step(Action("PickUp", ("cup1",))).status == "ok"
    result = w.step(Action("PlaceOn", ("cup1", "robot1")))
    assert result.failed and result.reason == "no_such_entity:robot1"
    assert w.carrying == "cup1" and w.entities["cup1"].on is None
    assert not w.observe().readings["robot1"].occluded


def test_duplicate_region_id_rejected_with_its_line():
    text = "grid 4 4\nregion room 0 0 1 1\nregion room 2 2 3 3\nagent robot1 0 0\n"
    with pytest.raises(ScenarioError, match="duplicate region id 'room'") as exc:
        parse_scenario(text, "two.scn")
    assert str(exc.value).startswith("two.scn:3: ")


@contextmanager
def returns_within(lines):
    """Fail the block once it has run `lines` traced Python lines, so a loop
    that never ends fails at once instead of hanging the suite."""
    left = lines

    def trace(frame, event, arg):
        nonlocal left
        left -= 1
        if left < 0:
            raise AssertionError(f"no return within {lines} lines")
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize(
    "target",
    ["liq1", "jar1", "lid1"],
    ids=["own-contents", "contained-elsewhere", "rides-on-own-contents"],
)
def test_place_on_a_contained_target_fails_and_changes_nothing(target):
    text = (
        "grid 6 6\nagent robot1 2 2\n"
        "entity cup1 2 2 category=cup contains=liq1,tray1\nentity liq1 2 2 category=liquid\n"
        "entity tray1 2 2 category=tray\nentity lid1 2 2 category=lid on=tray1\n"
        "entity box1 2 3 category=box contains=jar1\nentity jar1 2 3 category=jar\n"
    )
    w = world(text)
    assert w.step(Action("PickUp", ("cup1",))).status == "ok"
    with returns_within(100_000):
        result = w.step(Action("PlaceOn", ("cup1", target)))
    assert result.failed and result.reason == "contained"
    assert w.carrying == "cup1" and w.entities["cup1"].on is None
    w.step(Action("Move", ("E",)))
    assert {w.entities[e].position for e in ("cup1", "liq1", "tray1", "lid1")} == {(3, 2)}


@st.composite
def riding_scenes(draw):
    """A 3x3 scene, so that most pairs are within reach, whose entities
    rest on or sit in earlier-drawn ones (or sit in the agent), each
    declared on any cell, with scripted velocity and teleport events; and
    its ids."""
    cell = st.tuples(st.integers(0, 2), st.integers(0, 2))
    names = draw(st.permutations([f"e{k}" for k in range(draw(st.integers(1, 7)))]))
    ids = ["robot1", *names]
    category = {e: draw(st.sampled_from(["table", "cup", "box"])) for e in ids}
    on: dict[str, str] = {}
    rider: dict[str, str] = {}
    contains: dict[str, list[str]] = {e: [] for e in ids}
    for k, name in enumerate(names):
        kind = draw(st.sampled_from(["free", "on", "in", "in"]))
        if kind != "free":
            # often the one drawn just before, so that chains grow deep
            anchor = draw(st.sampled_from(ids[: k + 1]) | st.just(ids[k]))
            if kind == "on" and anchor != "robot1":
                # nothing rests on the agent; only a table holds two, so on
                # anything else, rest on the top of its stack, as PlaceOn does
                while category[anchor] != "table" and anchor in rider:
                    anchor = rider[anchor]
                on[name], rider[anchor] = anchor, name
            else:
                contains[anchor].append(name)
    lines = ["grid 3 3"]
    for e in ids:
        x, y = draw(cell)
        keys = [f"category={category[e]}"]
        keys += ["flags=fragile"] * draw(st.booleans())
        keys += [f"on={on[e]}"] if e in on else []
        keys += [f"contains={','.join(contains[e])}"] if contains[e] else []
        lines.append(f"{'agent' if e == 'robot1' else 'entity'} {e} {x} {y} {' '.join(keys)}")
    for _ in range(draw(st.integers(0, 4))):
        tick, e = draw(st.integers(0, 6)), draw(st.sampled_from(ids))
        if draw(st.booleans()):
            lines.append("at {} teleport {} {} {}".format(tick, e, *draw(cell)))
        else:
            dx, dy = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
            lines.append(f"at {tick} velocity {e} {dx} {dy}")
    return "\n".join(lines) + "\n", ids


@settings(max_examples=300, deadline=None)
@given(riding_scenes(), st.data())
def test_every_entity_sits_at_its_anchor_chain_root(scene, data):
    text, ids = scene
    entity = st.sampled_from(ids)

    def check(w):
        roots = anchor_roots(w)
        for e, state in w.entities.items():
            assert state.position == w.entities[roots[e]].position, e
        assert {e for e, r in w.observe().readings.items() if r.occluded} == occluded_entities(w)

    with returns_within(100_000):
        w = world(text)
    check(w)
    for _ in range(data.draw(st.integers(0, 40))):
        kind = data.draw(st.sampled_from(["Move", "PickUp", "PickUp", "PlaceOn", "PlaceOn", "Wait"]))
        if kind == "Move":
            action = Action(kind, (data.draw(st.sampled_from(sorted(GRID_DIRECTIONS))),))
        elif kind == "PickUp":
            action = Action(kind, (data.draw(entity),))
        elif kind == "PlaceOn":  # mostly of what is carried, onto anything
            action = Action(kind, (w.carrying or data.draw(entity), data.draw(entity)))
        else:
            action = Action(kind)
        with returns_within(100_000):
            w.step(action)
        check(w)
