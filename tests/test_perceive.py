"""Perception pathways and attention binding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.kb import ValidationError
from gridmind.perceive import (
    Observation,
    Reading,
    attend_and_bind,
    attention_score,
    build_dimension_graphs,
    compass_heading,
    extract_conceptual,
    extract_spatial,
    extract_temporal,
    opposite_heading,
)

UNIFORM = {"temporal": 1 / 3, "spatial": 1 / 3, "conceptual": 1 / 3}


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


class TestSpatial:
    def test_three_four_five_distance(self):
        o = obs(0, agent={"pos": (0, 0)}, e1={"pos": (3, 4)})
        fs = extract_spatial(o, "agent")
        assert fs.distances[("agent", "e1")] == 5.0

    def test_same_cell_ego_offset_zero(self):
        o = obs(0, agent={"pos": (2, 2)}, e1={"pos": (2, 2)})
        fs = extract_spatial(o, "agent")
        assert fs.locations["e1"].ego == (0, 0)

    def test_due_east_and_opposition(self):
        o = obs(0, agent={"pos": (0, 0)}, e1={"pos": (4, 0)})
        fs = extract_spatial(o, "agent")
        assert fs.directions[("agent", "e1")] == "E"
        assert fs.directions[("e1", "agent")] == "W"

    def test_occluded_agent_rejected(self):
        o = obs(0, agent={"pos": (0, 0), "occluded": True}, e1={"pos": (1, 1)})
        with pytest.raises(ValidationError):
            extract_spatial(o, "agent")

    def test_missing_agent_rejected(self):
        with pytest.raises(ValidationError):
            extract_spatial(obs(0, e1={}), "agent")


@settings(max_examples=80)
@given(
    ax=st.integers(0, 9), ay=st.integers(0, 9),
    bx=st.integers(0, 9), by=st.integers(0, 9),
)
def test_distance_symmetry_and_compass_opposition(ax, ay, bx, by):
    o = obs(0, agent={"pos": (ax, ay)}, other={"pos": (bx, by)})
    fs = extract_spatial(o, "agent")
    if (ax, ay) != (bx, by):
        assert fs.distances[("agent", "other")] == fs.distances[("other", "agent")]
        heading = fs.directions[("agent", "other")]
        assert fs.directions[("other", "agent")] == opposite_heading(heading)
    else:
        assert ("agent", "other") not in fs.directions


class TestConceptual:
    def test_category_functions_from_lexicon(self, rule_data):
        o = obs(0, cup1={"attrs": {"category": "cup"}})
        fc = extract_conceptual(o, rule_data.lexicon)
        assert fc.records["cup1"].functions == ("hold_liquid",)

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
        _, s_graph, _, _ = build_dimension_graphs(o, ft, fs, fc)
        relations = {(f.subject, f.relation, f.obj) for f in s_graph.facts()}
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
        _, s_graph, _, _ = build_dimension_graphs(o, ft, fs, fc)
        keys = {(f.subject, f.relation, f.obj) for f in s_graph.facts()}
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
        t_graph, _, c_graph, _ = build_dimension_graphs(window[-1], ft, fs, fc)
        assert t_graph.get("cat1", "has_state", "moving") is not None
        assert c_graph.get("cat1", "has_state", "moving") is None


def test_compass_heading_table():
    assert compass_heading(0, 0) is None
    assert compass_heading(2, 0) == "E"
    assert compass_heading(0, -3) == "N"
    assert compass_heading(5, 1) == "SE"
