"""Perception pathways and attention binding."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUNDLED, PERFBENCH, run_bundled, run_generated
from gridmind import canonical, cells, perceive
from gridmind.agent import RuleData
from gridmind.kb import ValidationError
from gridmind.perceive import (
    Observation,
    Reading,
    attend_and_bind,
    attention_score,
    build_dimension_graphs,
    extract_conceptual,
    extract_spatial,
    extract_temporal,
)
from gridmind.world import WorldState
from oracles import digest_payload, pairwise_spatial_facts, window_events

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
        ft = extract_temporal(window)
        assert len(ft.events) == 1
        event = ft.events[0]
        assert (event.kind, event.start, event.end) == ("move", 3, 7)
        assert event.end - event.start == 4

    def test_static_window_has_no_events(self):
        window = [obs(t, e1={}) for t in range(5)]
        assert extract_temporal(window).events == []

    def test_overlapping_events_interval_is_negative(self):
        window = [
            obs(
                t,
                bottle={"flags": ["tilting"] if 2 <= t < 5 else []},
                glass={"flags": ["wet"] if 4 <= t < 9 else []},
            )
            for t in range(10)
        ]
        ft = extract_temporal(window)
        by_kind = {e.kind: e for e in ft.events}
        tilt, wet = by_kind["tilting"], by_kind["wet"]
        assert (tilt.start, tilt.end) == (2, 5)
        assert (wet.start, wet.end) == (4, 9)
        # wet starts one tick before tilting ends
        assert wet.start - tilt.end == 4 - 5

    def test_flag_on_at_window_start_opens_event(self):
        window = [obs(t, e1={"flags": ["hot"]}) for t in range(3, 6)]
        ft = extract_temporal(window)
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
        ft = extract_temporal(window)
        assert [(e.event_id, e.entity) for e in ft.events] == [("ev1", "a"), ("ev2", "b")]

    def test_non_consecutive_window_rejected(self):
        with pytest.raises(ValidationError):
            extract_temporal([obs(0, e1={}), obs(2, e1={})])

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            extract_temporal([])


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
    events = extract_temporal(window).events
    assert [(e.event_id, e.entity, e.kind, e.start, e.end) for e in events] == window_events(window)


def test_move_and_moving_flags_opened_together_keep_flag_order():
    window = [obs(t, a={"flags": ["move", "moving"] if t < 2 else ["moving"]}) for t in range(4)]
    events = extract_temporal(window).events
    # ev1 is the "move" flag's event, closed at 2; ev2 the "moving" flag's
    assert [(e.event_id, e.kind, e.start, e.end) for e in events] == [
        ("ev1", "move", 0, 2),
        ("ev2", "move", 0, None),
    ]


def pairwise_facts(o: Observation, near_distance: float = 2.0) -> list[tuple]:
    fs = extract_spatial(o, "agent")
    ft, fc = extract_temporal([o]), extract_conceptual(o)
    _, s_facts, _, _ = build_dimension_graphs(o, ft, fs, fc, near_distance=near_distance)
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
        assert fc.records["cup1"].functions == ("hold_liquid",)

    def test_record_is_kept_per_lexicon_object(self):
        o = obs(0, cup1={"attrs": {"category": "cup"}})
        first = extract_conceptual(o, {"cup": ("hold_liquid",)}).records["cup1"]
        second = extract_conceptual(o, {"cup": ("drink_from",)}).records["cup1"]
        assert (first.functions, second.functions) == (("hold_liquid",), ("drink_from",))
        lexicon = {"cup": ("stack",)}
        kept = extract_conceptual(o, lexicon).records["cup1"]
        assert extract_conceptual(o, lexicon).records["cup1"] is kept

    def test_occluded_entity_absent(self):
        o = obs(0, hidden={"occluded": True})
        assert "hidden" not in extract_conceptual(o).records

    def test_unknown_category_keeps_category_empty_functions(self, rule_data):
        o = obs(0, blob1={"attrs": {"category": "blob"}})
        record = extract_conceptual(o, rule_data.lexicon).records["blob1"]
        assert record.category == "blob"
        assert record.functions == ()


class TestAttendAndBind:
    def test_full_presence_full_salience_scores_one(self):
        window = [obs(t, agent={"pos": (0, 0)}, e1={"pos": (0, 1), "flags": ["moving"], "attrs": {"category": "cat"}}) for t in range(2)]
        ft = extract_temporal(window)
        fs = extract_spatial(window[-1], "agent")
        fc = extract_conceptual(window[-1])
        bound = attend_and_bind(ft, fs, fc, UNIFORM, task_refs=frozenset({"e1"}))
        e1 = next(b for b in bound if b.entity == "e1")
        assert e1.score == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_on_only_present_dimension(self):
        o = obs(0, agent={"pos": (0, 0)}, ghost={"pos": (5, 5), "occluded": True})
        ft = extract_temporal([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        weights = {"temporal": 1.0, "spatial": 0.0, "conceptual": 0.0}
        bound = attend_and_bind(ft, fs, fc, weights)
        ghost = next(b for b in bound if b.entity == "ghost")
        assert ghost.score == 0.0
        assert ghost.below_threshold

    def test_ties_break_by_entity_id(self):
        o = obs(0, agent={"pos": (0, 0)}, b={"pos": (5, 5)}, a={"pos": (6, 6)})
        ft = extract_temporal([o])
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
        ft = extract_temporal([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        bound = attend_and_bind(ft, fs, fc, UNIFORM)
        assert sorted(b.entity for b in bound) == ["agent", "hidden", "seen"]

    def test_bad_weight_sum_rejected(self):
        o = obs(0, agent={"pos": (0, 0)})
        ft = extract_temporal([o])
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


class TestGraphEmission:
    def test_stacked_entity_emits_only_ontopof_relations(self):
        o = obs(
            0,
            agent={"pos": (0, 7)},
            table1={"pos": (2, 4), "attrs": {"category": "table"}},
            vase1={"pos": (2, 4), "attrs": {"category": "vase"}, "on": "table1"},
            bed1={"pos": (5, 4), "attrs": {"category": "bed"}},
        )
        ft = extract_temporal([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        _, s_facts, _, _ = build_dimension_graphs(o, ft, fs, fc)
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
        ft = extract_temporal([o])
        fs = extract_spatial(o, "agent")
        fc = extract_conceptual(o)
        _, s_facts, _, _ = build_dimension_graphs(o, ft, fs, fc)
        keys = {(f.subject, f.relation, f.obj) for f in s_facts}
        assert ("cup1", "Contains", "liq1") in keys
        assert ("liq1", "Inside", "cup1") in keys

    def test_moving_state_lands_in_temporal_graph(self):
        window = [
            obs(t, agent={"pos": (0, 0)}, cat1={"pos": (t, 3), "flags": ["moving"]})
            for t in range(2)
        ]
        ft = extract_temporal(window)
        fs = extract_spatial(window[-1], "agent")
        fc = extract_conceptual(window[-1])
        t_facts, _, c_facts, _ = build_dimension_graphs(window[-1], ft, fs, fc)
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
    for twin in (copy.copy(reading), copy.deepcopy(reading)):
        assert twin == reading and repr(twin) == repr(reading)
        assert set(vars(twin)) == fields


def test_a_reused_reading_restamps_its_facts_and_leaves_the_earlier_ones():
    reading = Reading("cup1", (1, 2), "hall", attributes={}, flags=frozenset(), contains=("x1",))
    first = reading.spatial_facts(3)
    rows = _rows(first)
    later = reading.spatial_facts(4)
    assert [f.tick for f in later] == [4, 4, 4, 4]
    assert [f.key() for f in later] == [f.key() for f in first]
    assert _rows(first) == rows
    assert reading.spatial_facts(4) is later


def _rows(facts):
    return [(f, repr(f), type(f.obj), f.key(), f.tick) for f in facts]


def _graph_rows(out):
    t_facts, s_facts, c_facts, by_entity = out
    return (
        _rows(t_facts),
        _rows(s_facts),
        _rows(c_facts),
        [(entity, _rows(facts)) for entity, facts in by_entity.items()],
    )


@pytest.mark.parametrize(
    "name, seed, noise",
    [(n, 0, False) for n in BUNDLED]
    + [(n, 4, True) for n in BUNDLED]
    + [(k, s, False) for k in ("crowded", "traffic") for s in (1, 2, 3)],
)
def test_carried_facts_equal_the_facts_of_cold_readings(monkeypatch, name, seed, noise):
    """Each tick's perceived facts, from readings that keep their facts and
    restamp them on later ticks, equal the facts built from deep copies of
    the readings, which keep nothing yet; and a tick's facts are still as
    they were after the next tick is perceived, so no kept fact is shared
    with a later tick."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    build = perceive.build_dimension_graphs
    lexicon = RuleData.load_default().lexicon
    previous: list = []  # the last tick's observation, output and its rows
    reused = 0

    def checked(o, ft, fs, fc, near_distance=2.0):
        nonlocal reused
        out = build(o, ft, fs, fc, near_distance)
        cold = copy.deepcopy(o)
        cold_fc = extract_conceptual(cold, lexicon)
        assert cold_fc.records == fc.records
        cold_out = build(cold, ft, extract_spatial(cold, fs.agent), cold_fc, near_distance)
        rows = _graph_rows(out)
        assert rows == _graph_rows(cold_out)
        if previous:
            last_obs, last_out, last_rows = previous.pop()
            assert _graph_rows(last_out) == last_rows
            reused += sum(o.readings[e] is last_obs.readings.get(e) for e in o.readings)
        previous.append((o, out, rows))
        return out

    monkeypatch.setattr(perceive, "build_dimension_graphs", checked)
    if name in BUNDLED:
        result = run_bundled(name, seed=seed, noise=noise)
    else:
        result = run_generated(name, seed)
    assert previous and result.runtime.world.tick > 0
    if not noise:
        assert reused > 0  # the carried facts were exercised
