"""Perception pathways and attention binding."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import inspect
import json
import os
import pickle
import random
import tempfile
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUNDLED, PERFBENCH, run_bundled, run_generated, temporal_features
from gridmind import canonical, cells, cognition, kb, perceive, reason
from gridmind.agent import AgentRuntime, RuleData, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.kb import ValidationError
from gridmind.metacog import Anomaly, normalize_weights, regulate
from gridmind.perceive import (
    BoundObject,
    ConceptRecord,
    Event,
    Observation,
    Reading,
    SpatialFeatures,
    TemporalFeatures,
    TemporalWindow,
    attend_and_bind,
    build_dimension_graphs,
    extract_conceptual,
    extract_spatial,
    extract_temporal,
)
from gridmind.trace import replay, write_trace
from gridmind.world import SURFACE_CATEGORIES, Action, WorldState, load_scenario, parse_scenario
from oracles import (
    attention_score,
    bind_reference,
    chaotic_forward_chain,
    digest_payload,
    pairwise_spatial_facts,
    window_events,
)

UNIFORM = {"temporal": 1 / 3, "spatial": 1 / 3, "conceptual": 1 / 3}
PAIRWISE = ("Near", "LeftOf", "RightOf", "Above", "Below")


def obs(tick, **entities) -> Observation:
    readings = {}
    for name, spec in sorted(entities.items()):
        readings[name] = Reading(
            entity=name,
            position=spec.get("pos", (0, 0)),
            region=spec.get("region"),
            occluded=spec.get("occluded", False),
            attributes=spec.get("attrs", {} if not spec.get("occluded") else None),
            flags=frozenset(spec.get("flags", ())) if not spec.get("occluded") else None,
            contains=tuple(spec.get("contains", ())),
            on=spec.get("on"),
        )
    return Observation(tick=tick, readings=readings)


class TestTemporal:
    def test_motion_toggle_makes_one_closed_event(self):
        window = [
            obs(t, e1={"flags": ["moving"] if 3 <= t < 7 else []}) for t in range(10)
        ]
        ft = temporal_features(window)
        assert len(ft.events) == 1
        event = ft.events[0]
        assert (event.kind, event.start, event.end) == ("move", 3, 7)
        assert event.end - event.start == 4

    def test_static_window_has_no_events(self):
        window = [obs(t, e1={}) for t in range(5)]
        assert temporal_features(window).events == []

    def test_overlapping_events_interval_is_negative(self):
        window = [
            obs(
                t,
                bottle={"flags": ["tilting"] if 2 <= t < 5 else []},
                glass={"flags": ["wet"] if 4 <= t < 9 else []},
            )
            for t in range(10)
        ]
        ft = temporal_features(window)
        by_kind = {e.kind: e for e in ft.events}
        tilt, wet = by_kind["tilting"], by_kind["wet"]
        assert (tilt.start, tilt.end) == (2, 5)
        assert (wet.start, wet.end) == (4, 9)
        # wet starts one tick before tilting ends
        assert wet.start - tilt.end == 4 - 5

    def test_flag_on_at_window_start_opens_event(self):
        window = [obs(t, e1={"flags": ["hot"]}) for t in range(3, 6)]
        ft = temporal_features(window)
        assert len(ft.events) == 1
        assert ft.events[0].start == 3
        assert not ft.events[0].closed

    def test_event_ids_follow_detection_order(self):
        window = [
            obs(
                t,
                b={"flags": ["hot"] if t >= 1 else []},
                a={"flags": ["wet"] if t >= 1 else []},
            )
            for t in range(3)
        ]
        ft = temporal_features(window)
        assert [(e.event_id, e.entity) for e in ft.events] == [("ev1", "a"), ("ev2", "b")]

    def test_non_consecutive_window_rejected(self):
        window = TemporalWindow(2)
        extract_temporal(window, obs(0, e1={}))
        with pytest.raises(ValidationError):
            extract_temporal(window, obs(2, e1={}))


FLAG_NAMES = ("move", "moving", "hot", "wet")


@st.composite
def windows(draw):
    """Windows of 1 to 12 consecutive ticks over up to four entities. At
    each tick an entity is absent, occluded, has new flags (both "move" and
    "moving" among them), or has the same Reading object as at its last
    tick, or an equal but separate one."""
    start = draw(st.integers(0, 100))
    entities = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    last: dict[str, Reading] = {}
    window = []
    for tick in range(start, start + draw(st.integers(1, 12))):
        readings = {}
        for entity in entities:
            choice = draw(st.sampled_from(["absent", "occluded", "flags", "flags", "same", "same", "equal"]))
            if choice == "absent":
                continue
            if choice in ("same", "equal") and entity in last:
                reading = last[entity] if choice == "same" else copy.copy(last[entity])
            elif choice == "occluded":
                reading = Reading(entity, (0, 0), occluded=True)
            else:
                flags = draw(st.frozensets(st.sampled_from(FLAG_NAMES)))
                reading = Reading(entity, (0, 0), attributes={}, flags=flags)
            readings[entity] = last[entity] = reading
        window.append(Observation(tick=tick, readings=readings))
    return window


@settings(max_examples=400, deadline=None)
@given(windows())
def test_temporal_events_match_the_window_rescan_oracle(window):
    events = temporal_features(window).events
    assert [(e.event_id, e.entity, e.kind, e.start, e.end) for e in events] == window_events(window)


def test_move_and_moving_flags_opened_together_keep_flag_order():
    window = [obs(t, a={"flags": ["move", "moving"] if t < 2 else ["moving"]}) for t in range(4)]
    events = temporal_features(window).events
    # ev1 is the "move" flag's event, closed at 2; ev2 the "moving" flag's
    assert [(e.event_id, e.kind, e.start, e.end) for e in events] == [
        ("ev1", "move", 0, 2),
        ("ev2", "move", 0, None),
    ]


def _events(window):
    return [(e.event_id, e.entity, e.kind, e.start, e.end) for e in temporal_features(window).events]


def test_temporal_events_match_the_oracle_on_every_sliding_window_of_a_traffic_run(monkeypatch):
    """Every window of one to window_size consecutive observations of a
    traffic run, so each observation is taken by windows that start before
    it, at its predecessor and at itself."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    observed = []
    observe = WorldState.observe

    def recording(world):
        o = observe(world)
        observed.append(o)
        return o

    monkeypatch.setattr(WorldState, "observe", recording)
    result = run_generated("traffic", 1)
    size = result.runtime.config.window_size
    assert len(observed) > size
    events = 0
    for end in range(1, len(observed) + 1):
        for start in range(max(0, end - size), end):
            window = observed[start:end]
            expected = window_events(window)
            assert _events(window) == expected
            events += len(expected)
    assert events


def test_an_observation_after_a_different_predecessor_finds_its_changes_again():
    a = obs(0, e1={"flags": ["hot"]}, e2={})
    b = obs(1, e1={}, e2={"flags": ["wet"]})
    c = obs(2, e1={"flags": ["hot"]}, e2={"flags": ["wet"]})
    other_b = obs(1, e1={"flags": ["hot", "moving"]}, e3={"flags": ["wet"]})
    windows = ([a, b, c], [b, c], [other_b, c], [a, other_b, c], [a, b, c], [c])
    for window in windows + windows:
        assert _events(window) == window_events(window)
    # a deep copy finds the same events
    for window in windows:
        assert _events(copy.deepcopy(window)) == window_events(window)


def test_a_window_lets_go_of_an_observation_two_ticks_back():
    a = obs(0, e1={"flags": ["hot"]})
    window = TemporalWindow(3)
    extract_temporal(window, a)
    extract_temporal(window, obs(1, e1={}))
    features = extract_temporal(window, obs(2, e1={}))
    assert [(e.entity, e.kind, e.start, e.end) for e in features.events] == [("e1", "hot", 0, 1)]
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None


@settings(max_examples=200, deadline=None)
@given(windows())
def test_every_sub_window_matches_the_rescan_oracle(window):
    for start in range(len(window)):
        for end in range(start + 1, len(window) + 1):
            sub = window[start:end]
            assert _events(sub) == window_events(sub)


SCRIPTED_FLAGS = ("hot", "wet", "powered", "open")
SCRIPTED_TICKS = 15


@st.composite
def scripted_worlds(draw):
    """(scenario text, window size): a grid of 4 to 12 cells a side, an
    agent and 1 to 6 entities on distinct cells, some with flags, scripted
    set, clear, velocity and teleport events in the first 15 ticks, and a
    window of 1 to 5 ticks."""
    width, height = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    count = draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    places = draw(st.lists(cell, min_size=count + 1, max_size=count + 1, unique=True))
    (ax, ay), *places = places
    names = [f"e{k}" for k in range(count)]
    lines = ["version 1", f"grid {width} {height}", f"agent robot1 {ax} {ay}"]
    for name, (x, y) in zip(names, places):
        flags = draw(st.sets(st.sampled_from(SCRIPTED_FLAGS)))
        lines.append(f"entity {name} {x} {y} category=box" + (f" flags={','.join(sorted(flags))}" if flags else ""))
    for _ in range(draw(st.integers(0, 16))):
        tick, name = draw(st.integers(0, SCRIPTED_TICKS - 1)), draw(st.sampled_from(names))
        kind = draw(st.sampled_from(["set", "clear", "velocity", "teleport"]))
        if kind in ("set", "clear"):
            operands = draw(st.sampled_from(SCRIPTED_FLAGS))
        elif kind == "velocity":
            operands = "{} {}".format(*draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1))))
        else:
            operands = "{} {}".format(*draw(cell))
        lines.append(f"at {tick} {kind} {name} {operands}")
    return "\n".join(lines) + "\n", draw(st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(scripted_worlds(), st.integers(0, 3))
def test_a_carried_window_matches_the_rescan_oracle_on_every_tick_of_a_scripted_world(world, seed):
    """An agent that waits through a generated world, noise off and on:
    on every tick, the events its carried window reports are those the
    rescan oracle finds in the last window_size observations."""
    text, size = world
    extract = perceive.extract_temporal
    for noise in (False, True):
        observed, reported = [], []

        def recording(window, o):
            features = extract(window, o)
            observed.append(o)
            reported.append([(e.event_id, e.entity, e.kind, e.start, e.end) for e in features.events])
            return features

        runtime = AgentRuntime(parse_scenario(text), EngineConfig(window_size=size), seed=seed, noise=noise)
        with mock.patch.object(perceive, "extract_temporal", recording):
            runtime.bootstrap()
            for _ in range(SCRIPTED_TICKS + size):
                runtime.tick(Action("Wait"))
        assert len(reported) == SCRIPTED_TICKS + size + 1
        for end, events in enumerate(reported, start=1):
            assert events == window_events(observed[max(0, end - size) : end]), end


WORLD_CATEGORIES = ("table", "box", "cup", "vase", "lamp", "plate")
# the scripted flags, plus those the bundled dependency and concept rules read
WORLD_FLAGS = SCRIPTED_FLAGS + ("fragile", "edible", "knocked_over")
WORLD_ATTRIBUTES = {
    "color": st.sampled_from(["red", "blue", "green"]),
    "size": st.integers(1, 3),
    "material": st.sampled_from(["wood", "ceramic", "metal"]),
}


@st.composite
def valid_worlds(draw):
    """The text of a scenario that parses: an agent in the first column and
    2 to 7 entities on a grid of 5 to 12 cells a side, in a room, a
    kitchen or no region, some with color, size, material and flags;
    stacks, each entity resting on an earlier surface or on an earlier
    non-surface that holds nothing yet; containers, each holding later
    entities that rest on nothing and lie in no other container; asserted
    facts; scripted set, clear, velocity and teleport events in the first
    10 ticks; and one or two navigate or fetch tasks."""
    width, height = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    count = draw(st.integers(2, 7))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    names = [f"e{k}" for k in range(count)]
    categories = dict(zip(names, draw(st.lists(st.sampled_from(WORLD_CATEGORIES), min_size=count, max_size=count))))
    on: dict[str, str] = {}
    holder: dict[str, str] = {}
    for k, name in enumerate(names[1:], start=1):
        earlier = names[:k]
        anchor = draw(st.sampled_from(["free", "on", "in"]))
        supports = [e for e in earlier if categories[e] in SURFACE_CATEGORIES or e not in on.values()]
        if anchor == "on" and supports:
            on[name] = draw(st.sampled_from(supports))
        elif anchor == "in":
            holder[name] = draw(st.sampled_from(earlier))
    lines = ["version 1", f"grid {width} {height}"]
    region = draw(st.sampled_from([None, "room", "kitchen"]))
    if region:
        lines.append(f"region {region} 0 0 {width - 1} {height - 1}")
    lines.append(f"agent robot1 0 {draw(st.integers(0, height - 1))}")
    for name in names:
        parts = ["entity {} {} {}".format(name, *draw(cell)), f"category={categories[name]}"]
        for key, values in WORLD_ATTRIBUTES.items():
            if draw(st.booleans()):
                parts.append(f"{key}={draw(values)}")
        flags = draw(st.sets(st.sampled_from(WORLD_FLAGS)))
        if flags:
            parts.append(f"flags={','.join(sorted(flags))}")
        if name in on:
            parts.append(f"on={on[name]}")
        contents = [e for e in names if holder.get(e) == name]
        if contents:
            parts.append(f"contains={','.join(contents)}")
        lines.append(" ".join(parts))
    objects = {
        "isa": st.sampled_from(WORLD_CATEGORIES), **WORLD_ATTRIBUTES,
        "has_state": st.sampled_from(SCRIPTED_FLAGS), "LeftOf": st.sampled_from(names),
    }
    for _ in range(draw(st.integers(0, 3))):
        relation = draw(st.sampled_from(sorted(objects)))
        confidence = draw(st.sampled_from(["", " 0.5", " 0.9"]))
        obj = draw(objects[relation])
        lines.append(f"fact {draw(st.sampled_from(names))} {relation} {obj}{confidence}")
    operands = {
        "set": st.sampled_from(SCRIPTED_FLAGS), "clear": st.sampled_from(SCRIPTED_FLAGS),
        "velocity": st.tuples(st.integers(-1, 1), st.integers(-1, 1)), "teleport": cell,
    }
    for _ in range(draw(st.integers(0, 4))):
        tick, name = draw(st.integers(0, 9)), draw(st.sampled_from(names))
        kind = draw(st.sampled_from(sorted(operands)))
        operand = draw(operands[kind])
        text = " ".join(map(str, operand)) if isinstance(operand, tuple) else operand
        lines.append(f"at {tick} {kind} {name} {text}")
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            lines.append(f"task navigate target={draw(st.sampled_from(names))}")
        else:
            obj, dest = draw(st.permutations(names))[:2]
            lines.append(f"task fetch object={obj} to={dest}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(valid_worlds(), st.integers(0, 3))
def test_a_generated_valid_world_runs_replays_and_perceives_as_the_oracle_does(text, seed):
    """Noise off and on, a run of the world raises nothing, its trace
    replays equal, every fact of its final unified graph is valid, and on
    every tick, the last included, its Near and cardinal facts are those
    the pairwise oracle finds among the free-standing readings. On the
    last tick, each of the four chaining calls (dependency, concept,
    composition and hazard rules) reaches, within its pass cap, the
    fixpoint the chaotic oracle reaches from that call's input graph."""
    build = perceive.build_dimension_graphs
    chains: list = []  # this tick's chaining calls: input facts, rules, output confidences

    def recorded(graph, rules, max_iterations):
        facts = list(graph)
        result = kb.forward_chain(graph, rules, max_iterations)
        assert not result.truncated
        chains.append((facts, rules, {f.key(): round(f.confidence, 12) for f in graph}))
        return result

    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "world.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        scenario = load_scenario(path)
        for noise in (False, True):
            ticks = []

            def checked(o, ft, fc, near_distance=2.0):
                out = build(o, ft, fc, near_distance)
                pairwise = [(f.subject, f.relation, f.obj) for f in out[1] if f.relation in PAIRWISE]
                assert pairwise == pairwise_spatial_facts(o, near_distance), o.tick
                ticks.append(o.tick)
                chains.clear()
                return out

            with mock.patch.object(perceive, "build_dimension_graphs", checked), \
                    mock.patch.object(reason, "forward_chain", recorded), \
                    mock.patch.object(cognition, "forward_chain", recorded):
                result = run_scenario(
                    scenario, EngineConfig(), seed=seed, planner_factory=scripted_planner_factory,
                    noise=noise, scenario_text=text,
                )
            assert ticks == list(range(result.runtime.world.tick + 1))
            assert len(chains) == 4
            for facts, rules, chained in chains:
                oracle = chaotic_forward_chain(facts, rules, random.Random(seed))
                assert {k: round(v, 12) for k, v in oracle.items()} == chained
            trace_path = os.path.join(folder, "world.trace")
            write_trace(trace_path, result.lines)
            assert replay(trace_path).equal
            for fact in result.runtime.unified.graph:
                fact.validate()


def pairwise_facts(o: Observation, near_distance: float = 2.0) -> list[tuple]:
    ft, fc = temporal_features([o]), extract_conceptual(o)
    _, s_facts, _, _ = build_dimension_graphs(o, ft, fc, near_distance=near_distance)
    return [(f.subject, f.relation, f.obj) for f in s_facts if f.relation in PAIRWISE]


class TestSpatial:
    def test_three_four_five_distance(self):
        o = obs(0, agent={"pos": (0, 0)}, e1={"pos": (3, 4)})
        assert pairwise_facts(o, near_distance=5.0) == []
        assert pairwise_facts(o, near_distance=5.5) == [
            ("agent", "Near", "e1"), ("e1", "Near", "agent")
        ]

    def test_same_cell_ego_offset_zero(self):
        o = obs(0, agent={"pos": (2, 2)}, e1={"pos": (2, 2)}, e2={"pos": (5, 1)})
        fs = extract_spatial(o, "agent")
        assert fs.locations == {"agent": (0, 0), "e1": (0, 0), "e2": (3, -1)}

    def test_due_east_and_opposition(self):
        o = obs(0, agent={"pos": (0, 0)}, e1={"pos": (4, 0)})
        assert pairwise_facts(o) == [("agent", "LeftOf", "e1"), ("e1", "RightOf", "agent")]

    def test_occluded_agent_rejected(self):
        o = obs(0, agent={"pos": (0, 0), "occluded": True}, e1={"pos": (1, 1)})
        with pytest.raises(ValidationError):
            extract_spatial(o, "agent")

    def test_missing_agent_rejected(self):
        with pytest.raises(ValidationError):
            extract_spatial(obs(0, e1={}), "agent")


class TestConceptual:
    def test_category_functions_from_lexicon(self, rule_data):
        o = obs(0, cup1={"attrs": {"category": "cup"}})
        fc = extract_conceptual(o, rule_data.lexicon)
        assert fc["cup1"].functions == ("hold_liquid",)

    def test_record_is_kept_per_lexicon_object(self):
        o = obs(0, cup1={"attrs": {"category": "cup"}})
        first = extract_conceptual(o, {"cup": ("hold_liquid",)})["cup1"]
        second = extract_conceptual(o, {"cup": ("drink_from",)})["cup1"]
        assert (first.functions, second.functions) == (("hold_liquid",), ("drink_from",))
        lexicon = {"cup": ("stack",)}
        kept = extract_conceptual(o, lexicon)["cup1"]
        assert extract_conceptual(o, lexicon)["cup1"] is kept

    def test_occluded_entity_absent(self):
        o = obs(0, hidden={"occluded": True})
        assert "hidden" not in extract_conceptual(o)

    def test_unknown_category_keeps_category_empty_functions(self, rule_data):
        o = obs(0, blob1={"attrs": {"category": "blob"}})
        record = extract_conceptual(o, rule_data.lexicon)["blob1"]
        assert record.category == "blob"
        assert record.functions == ()


class TestAttendAndBind:
    def test_full_presence_full_salience_scores_one(self):
        window = [obs(t, agent={"pos": (0, 0)}, e1={"pos": (0, 1), "flags": ["moving"], "attrs": {"category": "cat"}}) for t in range(2)]
        ft = temporal_features(window)
        fs = extract_spatial(window[-1], "agent")
        fc = extract_conceptual(window[-1])
        bound = attend_and_bind(ft, fs, fc, UNIFORM, task_refs=frozenset({"e1"}))
        e1 = next(b for b in bound if b.entity == "e1")
        assert e1.score == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_on_only_present_dimension(self):
        o = obs(0, agent={"pos": (0, 0)}, ghost={"pos": (5, 5), "occluded": True})
        ft = temporal_features([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        weights = {"temporal": 1.0, "spatial": 0.0, "conceptual": 0.0}
        bound = attend_and_bind(ft, fs, fc, weights)
        ghost = next(b for b in bound if b.entity == "ghost")
        assert ghost.score == 0.0
        assert ghost.below_threshold

    def test_ties_break_by_entity_id(self):
        o = obs(0, agent={"pos": (0, 0)}, b={"pos": (5, 5)}, a={"pos": (6, 6)})
        ft = temporal_features([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        bound = attend_and_bind(ft, fs, fc, UNIFORM)
        scores = {x.entity: x.score for x in bound}
        assert scores["a"] == scores["b"]
        order = [x.entity for x in bound]
        assert order.index("a") < order.index("b")

    def test_every_entity_bound_exactly_once(self):
        o = obs(
            0,
            agent={"pos": (0, 0)},
            seen={"pos": (1, 0), "attrs": {"category": "cup"}},
            hidden={"pos": (4, 4), "occluded": True},
        )
        ft = temporal_features([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        bound = attend_and_bind(ft, fs, fc, UNIFORM)
        assert sorted(b.entity for b in bound) == ["agent", "hidden", "seen"]

    def test_bad_weight_sum_rejected(self):
        o = obs(0, agent={"pos": (0, 0)})
        ft = temporal_features([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        with pytest.raises(ValidationError):
            attend_and_bind(ft, fs, fc, {"temporal": 0.5, "spatial": 0.5, "conceptual": 0.5})


@settings(max_examples=60)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=0.0, max_value=1.0),
    sal=st.floats(min_value=0.0, max_value=1.0),
)
def test_attention_score_monotone_in_present_dimension_weight(w, delta, sal):
    presence = {"temporal": True, "spatial": True, "conceptual": False}
    salience = {"temporal": sal, "spatial": 0.4, "conceptual": 0.9}
    base = {"temporal": w, "spatial": 0.2, "conceptual": 0.2}
    raised = dict(base, temporal=w + delta)
    assert attention_score(presence, salience, raised) >= attention_score(
        presence, salience, base
    )


BIND_ENTITIES = ("agent", "a", "b", "c", "d")
BIND_FLAGS = ("hot", "wet", "powered", "fragile", "moving")


@st.composite
def bind_cases(draw):
    """Features as the pathways hand them to binding: open and closed
    "move" and flag events, ego offsets up to three cells each way (so
    that the distance falls below, at and above 2.0), records with and
    without the hot, wet and powered flags, task refs with and without
    the agent, and weights that `metacog.regulate` has reweighted."""
    present = draw(st.lists(st.sampled_from(BIND_ENTITIES), unique=True))
    events = []
    for k in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, 5))
        closed = draw(st.booleans())
        events.append(
            Event(
                event_id=f"ev{k + 1}",
                entity=draw(st.sampled_from(BIND_ENTITIES)),
                kind=draw(st.sampled_from(("move", "hot", "wet", "powered", "open"))),
                start=start,
                end=start + draw(st.integers(1, 3)) if closed else None,
            )
        )
    offset = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    locations = {e: draw(offset) for e in present}
    records = {
        e: ConceptRecord(e, "cup", None, None, None, None, draw(st.frozensets(st.sampled_from(BIND_FLAGS))), ())
        for e in present
        if draw(st.booleans())
    }
    cfg = EngineConfig()
    weights = normalize_weights(cfg.weights(), cfg.weight_min, cfg.weight_max)
    for _ in range(draw(st.integers(0, 4))):
        kinds = draw(st.lists(st.sampled_from(("PredictionMismatch", "Contradiction")), max_size=2))
        anomalies = [Anomaly(kind, ("x|Near|y", "y|Near|x"), 0.5) for kind in kinds]
        _, weights = regulate(anomalies, weights, cfg)
    task_refs = frozenset(draw(st.lists(st.sampled_from(BIND_ENTITIES))))
    threshold = draw(st.sampled_from([0.0, 0.25, 0.3, 1 / 3]) | st.floats(0.0, 1.0))
    return (
        TemporalFeatures(events=events),
        SpatialFeatures(locations=locations, agent="agent"),
        records,
        weights,
        task_refs,
        threshold,
    )


@settings(max_examples=400, deadline=None)
@given(bind_cases())
def test_binding_equals_the_dict_based_reference(case):
    ft, fs, fc, weights, task_refs, threshold = case
    bound = attend_and_bind(ft, fs, fc, weights, task_refs=task_refs, threshold=threshold)
    assert [(b.entity, b.score, b.below_threshold) for b in bound] == bind_reference(
        ft, fs, fc, weights, task_refs, threshold
    )


class TestGraphEmission:
    def test_stacked_entity_emits_only_ontopof_relations(self):
        o = obs(
            0,
            agent={"pos": (0, 7)},
            table1={"pos": (2, 4), "attrs": {"category": "table"}},
            vase1={"pos": (2, 4), "attrs": {"category": "vase"}, "on": "table1"},
            bed1={"pos": (5, 4), "attrs": {"category": "bed"}},
        )
        ft = temporal_features([o])
        fc = extract_conceptual(o)
        _, s_facts, _, _ = build_dimension_graphs(o, ft, fc)
        relations = {(f.subject, f.relation, f.obj) for f in s_facts}
        assert ("vase1", "OnTopOf", "table1") in relations
        assert ("table1", "LeftOf", "bed1") in relations
        assert not any(s == "vase1" and r in ("LeftOf", "Near") for s, r, _ in relations)

    def test_containment_emits_both_directions(self):
        o = obs(
            0,
            agent={"pos": (0, 0)},
            cup1={"pos": (1, 1), "attrs": {"category": "cup"}, "contains": ["liq1"]},
            liq1={"pos": (1, 1), "occluded": True},
        )
        ft = temporal_features([o])
        fc = extract_conceptual(o)
        _, s_facts, _, _ = build_dimension_graphs(o, ft, fc)
        keys = {(f.subject, f.relation, f.obj) for f in s_facts}
        assert ("cup1", "Contains", "liq1") in keys
        assert ("liq1", "Inside", "cup1") in keys

    def test_moving_state_lands_in_temporal_graph(self):
        window = [
            obs(t, agent={"pos": (0, 0)}, cat1={"pos": (t, 3), "flags": ["moving"]})
            for t in range(2)
        ]
        ft = temporal_features(window)
        fc = extract_conceptual(window[-1])
        t_facts, _, c_facts, _ = build_dimension_graphs(window[-1], ft, fc)
        moving = ("cat1", "has_state", "moving")
        assert [f.key() for f in t_facts] == [moving]
        assert moving not in {f.key() for f in c_facts}


@st.composite
def scenes(draw):
    """Up to 30 entities on grids of 1x1 to 30x30, most of them on a few
    rows and columns, with random supports, carried flags and occlusion;
    and any finite near_distance from 0 up, often within the grid's size,
    subnormal and huge ones too."""
    width, height = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rows = draw(st.lists(st.integers(0, height - 1), min_size=1, max_size=3))
    columns = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3))
    cell = st.tuples(
        st.sampled_from(columns) | st.integers(0, width - 1),
        st.sampled_from(rows) | st.integers(0, height - 1),
    )
    entities = {"agent": {"pos": draw(cell)}}
    for i in range(1, draw(st.integers(0, 29)) + 1):
        stacked, carried, occluded = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        spec: dict = {"pos": draw(cell), "occluded": occluded}
        if stacked:
            spec["on"] = f"e{i - 1:02d}" if i > 1 else "agent"
        if carried:
            spec["flags"] = ["carried"]
        entities[f"e{i:02d}"] = spec
    near_distance = draw(
        st.sampled_from([0.0, 5e-324, 1.0, 2**0.5, 1.5, 2.0, 2.5, 1e9, 1.7976931348623157e308])
        | st.floats(min_value=0.0, max_value=float(max(width, height)))
        | st.floats(min_value=0.0, allow_infinity=False)
    )
    return obs(0, **entities), near_distance


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_pairwise_facts_match_brute_force_oracle(scene):
    """Near and cardinal facts, in emission order, equal the oracle's for
    random positions, supports, carried flags and occlusion: both for free
    lists short enough to test every pair and for longer ones, which
    take their candidates from rows, columns and cells."""
    o, near_distance = scene
    assert pairwise_facts(o, near_distance) == pairwise_spatial_facts(o, near_distance)


@pytest.mark.parametrize("count, bucketed", [(cells.NEIGHBOURHOOD, False), (cells.NEIGHBOURHOOD + 1, True)])
def test_only_free_lists_longer_than_a_neighbourhood_are_bucketed(monkeypatch, count, bucketed):
    calls = []
    close_pairs = cells.close_pairs

    def counting(points, size):
        calls.append(size)
        return close_pairs(points, size)

    monkeypatch.setattr(cells, "close_pairs", counting)
    o = obs(0, agent={"pos": (0, 0)}, **{f"e{i}": {"pos": (2 * i, i % 3)} for i in range(1, count)})
    assert pairwise_facts(o, 2.5) == pairwise_spatial_facts(o, 2.5)
    assert calls == ([3] if bucketed else [])


TOKENS = st.text(max_size=6)  # any text, non-ASCII and escapes included
READINGS = st.builds(
    Reading,
    entity=TOKENS,
    position=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    region=st.none() | TOKENS,
    occluded=st.booleans(),
    attributes=st.none() | st.dictionaries(TOKENS, TOKENS | st.integers(), max_size=4),
    flags=st.none() | st.frozensets(TOKENS, max_size=4),
    contains=st.lists(TOKENS, max_size=3).map(tuple),
    on=st.none() | TOKENS,
)


@settings(max_examples=200)
@given(tick=st.integers(0, 10**6), readings=st.dictionaries(TOKENS, READINGS, max_size=5))
def test_digest_text_is_canonical_json_of_the_oracle_payload(tick, readings):
    o = Observation(tick=tick, readings=readings)
    expected = canonical.dumps(digest_payload(o))
    assert o.digest_text() == expected
    assert o.digest_text() == expected  # and again, from the readings' kept texts


@pytest.mark.parametrize("noise", [False, True], ids=["exact", "noise-seed-4"])
@pytest.mark.parametrize("name", BUNDLED)
def test_digest_text_matches_the_oracle_on_every_bundled_tick(monkeypatch, name, noise):
    observed = []
    observe = WorldState.observe

    def recording(world):
        obs = observe(world)
        observed.append(obs)
        return obs

    monkeypatch.setattr(WorldState, "observe", recording)
    result = run_bundled(name, seed=4 if noise else 0, noise=noise)
    rows = [json.loads(line) for line in result.lines[1:-1]]
    assert [obs.tick for obs in observed] == [row["tick"] for row in rows]
    for obs, row in zip(observed, rows):
        text = canonical.dumps(digest_payload(obs))
        assert obs.digest_text() == text
        assert row["obs"] == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_a_copied_reading_equals_the_original_and_keeps_nothing():
    o = obs(3, agent={"pos": (1, 2), "region": "hall", "attrs": {"category": "cup"}, "contains": ["x1"]})
    reading = o.readings["agent"]
    assert o.digest_text() and reading.concept({}) and reading.spatial_facts(3)
    fields = {f.name for f in dataclasses.fields(Reading)}
    assert set(vars(reading)) > fields
    for twin in (copy.copy(reading), copy.deepcopy(reading), pickle.loads(pickle.dumps(reading))):
        assert twin == reading and repr(twin) == repr(reading)
        assert set(vars(twin)) == fields


def test_a_reused_reading_hands_back_the_facts_it_made_at_their_tick():
    reading = Reading("cup1", (1, 2), "hall", attributes={"category": "cup"},
                      flags=frozenset({"hot"}), contains=("x1",))
    first = reading.spatial_facts(3)
    facts = _facts(first)
    assert [f.tick for f in first] == [3, 3, 3, 3]
    assert reading.spatial_facts(4) is first
    assert _facts(first) == facts
    record = reading.concept({"cup": ("drink",)})
    conceptual = record.facts(3)
    assert [(f.relation, f.tick) for f in conceptual] == [("isa", 3), ("has_state", 3), ("affords", 3)]
    assert record.facts(4) is conceptual


def _rows(facts):
    """What each fact asserts, its tick aside, in list order."""
    return [(f.key(), f.confidence, f.origin, type(f.obj)) for f in facts]


def _facts(facts):
    """Each fact whole, its tick included, in list order."""
    return [(f, repr(f), type(f.obj), f.key()) for f in facts]


def _graph_rows(out, rows=_rows):
    t_facts, s_facts, c_facts, by_entity = out
    return (
        rows(t_facts),
        rows(s_facts),
        rows(c_facts),
        [(entity, rows(facts)) for entity, facts in by_entity.items()],
    )


class _Dates:
    """Checks the tick of each perceived fact of a run, one observation at
    a time. A fact a reading owns (its spatial facts and its concept
    record's) carries the first tick of the run of ticks, ending now,
    through which its entity showed it, each tick's reading the one of the
    tick before or one that differs from it only in position and region,
    a move; every other perceived fact carries the observation's tick."""

    def __init__(self, lexicon):
        self.lexicon = lexicon
        self.shown = {}  # entity -> (last reading, {key: tick first shown})

    def check(self, o, out):
        t_facts, s_facts, c_facts, _ = out
        tick, owned, last, self.shown = o.tick, set(), self.shown, {}
        for entity, reading in o.readings.items():
            record = reading.concept(self.lexicon)
            own = reading.spatial_facts(tick) + (record.facts(tick) if record else [])
            before, since = last.get(entity, (None, {}))
            moved = before is not None and reading == dataclasses.replace(
                before, position=reading.position, region=reading.region
            )
            dates = {f.key(): since.get(f.key(), tick) if moved else tick for f in own}
            assert [f.tick for f in own] == [dates[f.key()] for f in own], (tick, entity)
            owned.update(map(id, own))
            self.shown[entity] = (reading, dates)
        assert {f.tick for f in t_facts + s_facts + c_facts if id(f) not in owned} <= {tick}


@pytest.mark.parametrize(
    "name, seed, noise",
    [(n, 0, False) for n in BUNDLED]
    + [(n, 4, True) for n in BUNDLED]
    + [(k, s, False) for k in ("crowded", "traffic") for s in (1, 2, 3)],
)
def test_carried_facts_equal_the_facts_of_cold_readings(monkeypatch, name, seed, noise):
    """Each tick's perceived facts, from readings that keep their facts and
    hand them back on later ticks, equal in list order, tick aside, the
    facts built from deep copies of the readings, which keep nothing yet;
    each is dated as `_Dates` says; and a tick's facts are still as they
    were after the next tick is perceived, so no kept fact is changed by
    a later tick."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    build = perceive.build_dimension_graphs
    lexicon = RuleData.load_default().lexicon
    dates = _Dates(lexicon)
    previous: list = []  # the last tick's observation, output and its facts
    reused = carried = 0

    def checked(o, ft, fc, near_distance=2.0):
        nonlocal reused, carried
        out = build(o, ft, fc, near_distance)
        cold = copy.deepcopy(o)
        cold_fc = extract_conceptual(cold, lexicon)
        assert cold_fc == fc
        cold_out = build(cold, ft, cold_fc, near_distance)
        assert _graph_rows(out) == _graph_rows(cold_out)
        dates.check(o, out)
        carried += sum(f.tick < o.tick for f in out[1] + out[2])
        if previous:
            last_obs, last_out, last_facts = previous.pop()
            assert _graph_rows(last_out, _facts) == last_facts
            reused += sum(o.readings[e] is last_obs.readings.get(e) for e in o.readings)
        previous.append((o, out, _graph_rows(out, _facts)))
        return out

    monkeypatch.setattr(perceive, "build_dimension_graphs", checked)
    if name in BUNDLED:
        result = run_bundled(name, seed=seed, noise=noise)
    else:
        result = run_generated(name, seed)
    assert previous and result.runtime.world.tick > 0
    if not noise:
        assert reused > 0 and carried > 0  # the carried facts were exercised


@pytest.mark.parametrize("noise", [False, True], ids=["exact", "noise"])
@pytest.mark.parametrize("name", [*BUNDLED, "traffic"])
def test_inherited_readings_imply_what_cold_readings_do(monkeypatch, name, noise):
    """On every tick, each reading's digest text, concept record with its
    facts, and spatial facts equal, tick aside, those of a copy of it,
    which keeps nothing, and are dated as `_Dates` says; some readings of
    the run took over state from the reading of their entity at a cell
    they left (`Reading.moved_to`)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    lexicon = RuleData.load_default().lexicon
    dates = _Dates(lexicon)
    fields = {f.name for f in dataclasses.fields(Reading)}
    observe, build = WorldState.observe, perceive.build_dimension_graphs
    inherited = ticks = 0

    def observing(world):
        nonlocal inherited
        last = world._readings
        o = observe(world)
        for entity, reading in o.readings.items():
            if reading is not last.get(entity) and set(vars(reading)) > fields:
                inherited += 1
        return o

    def checked(o, ft, fc, near_distance=2.0):
        nonlocal ticks
        out = build(o, ft, fc, near_distance)
        for reading in o.readings.values():
            cold = copy.copy(reading)
            assert set(vars(cold)) == fields
            assert reading.text() == cold.text()
            record, cold_record = reading.concept(lexicon), cold.concept(lexicon)
            assert record == cold_record
            if record is not None:
                assert _rows(record.facts(o.tick)) == _rows(cold_record.facts(o.tick))
            assert _rows(reading.spatial_facts(o.tick)) == _rows(cold.spatial_facts(o.tick))
        dates.check(o, out)
        ticks += 1
        return out

    monkeypatch.setattr(WorldState, "observe", observing)
    monkeypatch.setattr(perceive, "build_dimension_graphs", checked)
    if name in BUNDLED:
        run_bundled(name, seed=4 if noise else 0, noise=noise)
    else:
        run_generated(name, 1, noise=noise)
    assert ticks > 0
    # fetch_close's agent moves only on ticks that also set or clear "moving"
    if noise or name != "fetch_close":
        assert inherited > 0


def test_a_moved_reading_takes_over_what_its_position_does_not_change():
    lexicon = {"box": ("store",)}
    attrs, flags = {"category": "box"}, frozenset({"hot"})
    box = Reading("box1", (1, 2), "hall", False, attrs, flags, ("x1",))
    assert box.text() and box.concept(lexicon).facts(3) and box.spatial_facts(3)
    for position, region in (((2, 2), "hall"), ((9, 9), "yard"), ((9, 9), None)):
        moved = box.moved_to(position, region, 4)
        cold = Reading("box1", position, region, False, dict(attrs), flags, ("x1",))
        assert moved == cold
        assert moved.attributes is box.attributes and moved.flags is box.flags
        assert moved.concept(lexicon) is box.concept(lexicon)
        assert moved.text() == cold.text()
        facts = moved.spatial_facts(5)
        assert _rows(facts) == _rows(cold.spatial_facts(5))
        kept = box.spatial_facts(3)
        assert (facts[1] is kept[1]) == (region == "hall")
        assert facts[-2:] == kept[-2:] and facts[-2] is kept[-2] and facts[-1] is kept[-1]
    bare = Reading("box1", (1, 2)).moved_to((3, 3), "hall", 4)
    assert _facts(bare.spatial_facts(4)) == _facts(Reading("box1", (3, 3), "hall").spatial_facts(4))


def test_a_moved_reading_dates_the_facts_it_makes_at_the_move():
    box = Reading("box1", (1, 2), "hall", False, {}, frozenset(), ("x1",))
    assert [f.tick for f in box.spatial_facts(3)] == [3, 3, 3, 3]
    within = box.moved_to((2, 2), "hall", 7).spatial_facts(8)
    assert [(f.relation, f.tick) for f in within] == [
        ("at", 7), ("located_in", 3), ("Contains", 3), ("Inside", 3)
    ]
    across = box.moved_to((9, 9), "yard", 7).spatial_facts(8)
    assert [(f.relation, f.obj, f.tick) for f in across] == [
        ("at", "9,9", 7), ("located_in", "yard", 7), ("Contains", "x1", 3), ("Inside", "box1", 3)
    ]
    # a reading that made no spatial facts yet makes them all on first use
    fresh = Reading("box1", (1, 2), "hall").moved_to((2, 2), "hall", 7).spatial_facts(8)
    assert [f.tick for f in fresh] == [8, 8]


def _dataclass_built(cls, *args, **kwargs):
    """An instance of `cls` made by the frozen dataclass's own __init__,
    which sets each field with object.__setattr__."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    instance = object.__new__(cls)
    twin.__init__(instance, *args, **kwargs)
    return instance, twin


RECORDS = [
    (Event, ("ev1", "cart1", "move", 3), {}),
    (Event, ("ev2", "lamp1", "powered", 1), {"end": 4}),
    (BoundObject, ("cart1", 0.55), {"below_threshold": False}),
    (ConceptRecord, ("cup1", "cup", "glass", None, "red", 2, frozenset({"hot"}), ("drink",)), {}),
    (Reading, ("cup1", (1, 2)), {}),
    (
        Reading,
        ("cup1", (1, 2), "hall", False, {"color": "red"}, frozenset({"wet"}), ("x1",)),
        {"on": "t1"},
    ),
    (Observation, (3,), {"readings": {}}),
]


@pytest.mark.parametrize("cls, args, kwargs", RECORDS)
def test_a_directly_built_record_is_the_dataclass_built_one(cls, args, kwargs):
    fast = cls(*args, **kwargs)
    reference, twin = _dataclass_built(cls, *args, **kwargs)
    assert fast == reference and repr(fast) == repr(reference)
    assert list(vars(fast).items()) == list(vars(reference).items())
    try:
        expected = hash(reference)
    except TypeError:
        with pytest.raises(TypeError):
            hash(fast)
    else:
        assert hash(fast) == expected
    ours = inspect.signature(cls).parameters.values()
    theirs = inspect.signature(twin).parameters.values()
    assert [(p.name, p.kind, p.default) for p in ours] == [
        (p.name, p.kind, p.default) for p in theirs
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, dataclasses.fields(cls)[0].name, None)
    first = dataclasses.fields(cls)[0].name
    changed = dataclasses.replace(fast, **{first: "other"})
    assert changed == dataclasses.replace(reference, **{first: "other"}) != fast
    for twin_copy in (pickle.loads(pickle.dumps(fast)), copy.copy(fast), copy.deepcopy(fast)):
        assert twin_copy == fast and type(twin_copy) is cls


def test_a_copied_or_pickled_concept_record_drops_its_facts():
    record = ConceptRecord("cup1", "cup", None, None, "red", 2, frozenset(), ())
    assert record.facts(1)
    fields = {f.name for f in dataclasses.fields(record)}
    assert set(vars(record)) > fields
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and set(vars(twin)) == fields


@pytest.mark.parametrize("name, seed", [(k, s) for k in ("crowded", "traffic") for s in (1, 2)])
def test_no_observation_older_than_the_previous_ticks_stays_alive(monkeypatch, name, seed):
    """Whenever the world is about to observe tick t, the only observation
    still alive is that of tick t - 1, which the temporal window holds:
    what an older one's readings kept has gone with it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    observe = WorldState.observe
    made: list[weakref.ref] = []

    def checked_observe(world):
        alive = [o.tick for o in (ref() for ref in made) if o is not None]
        assert alive == ([world.tick - 1] if made else []), world.tick
        o = observe(world)
        made.append(weakref.ref(o))
        return o

    monkeypatch.setattr(WorldState, "observe", checked_observe)
    result = run_generated(name, seed)
    assert len(made) == result.runtime.world.tick + 1 > 2
