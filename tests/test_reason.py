"""Reasoning engines: closure, prediction, composition, collision."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.kb import Fact, SemanticGraph, ValidationError
from gridmind.perceive import Observation, Reading
from gridmind.reason import (
    EventSequenceModel,
    TemporalInconsistencyError,
    TemporalOrder,
    Trajectory,
    compose_spatial,
    detect_collision,
    infer_concepts,
    order_from_events,
    predict_next,
    predict_trajectory,
    temporal_closure,
    train_sequence_model,
)
from conftest import temporal_features
from oracles import (
    composition_table,
    exhaustive_composition,
    random_dag,
    reachability_closure,
    reference_predict_trajectory,
)


class TestTemporalClosure:
    def test_two_link_chain_adds_transitive_pair(self):
        order = TemporalOrder({("a", "b"), ("b", "c")})
        closed = temporal_closure(order)
        assert ("a", "c") in closed.pairs
        assert closed.pairs == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_four_event_chain_closes_to_six_pairs(self):
        order = TemporalOrder({("a", "b"), ("b", "c"), ("c", "d")})
        assert len(temporal_closure(order).pairs) == 6

    def test_empty_order_stays_empty(self):
        assert temporal_closure(TemporalOrder()).pairs == set()

    def test_closure_is_fixpoint(self):
        order = TemporalOrder({("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")})
        once = temporal_closure(order)
        assert temporal_closure(once).pairs == once.pairs

    def test_cycle_reported_with_offending_nodes(self):
        order = TemporalOrder({("a", "b"), ("b", "c"), ("c", "a")})
        with pytest.raises(TemporalInconsistencyError) as exc:
            temporal_closure(order)
        assert set(exc.value.cycle) >= {"a", "b", "c"}

    def test_matches_reachability_oracle_on_random_dags(self):
        for seed in range(50):
            pairs = random_dag(random.Random(seed))
            assert temporal_closure(TemporalOrder(set(pairs))).pairs == reachability_closure(pairs)


PERCEIVED_ENTITIES = ("a", "b", "c")
PERCEIVED_FLAGS = ("moving", "hot", "wet")


@st.composite
def flag_windows(draw):
    """Consecutive-tick windows of per-entity flag sets; an entity may be
    missing or occluded (flags unknown) on any tick."""
    start = draw(st.integers(min_value=0, max_value=5))
    length = draw(st.integers(min_value=1, max_value=12))
    window = []
    for tick in range(start, start + length):
        readings = {}
        for entity in PERCEIVED_ENTITIES:
            state = draw(st.sampled_from(["seen", "seen", "seen", "missing", "occluded"]))
            if state == "missing":
                continue
            flags = (
                None
                if state == "occluded"
                else frozenset(draw(st.sets(st.sampled_from(PERCEIVED_FLAGS))))
            )
            readings[entity] = Reading(entity, (0, 0), occluded=flags is None, flags=flags)
        window.append(Observation(tick, readings))
    return window


@settings(max_examples=200, deadline=None)
@given(flag_windows())
def test_perceived_precedence_is_acyclic_and_already_closed(window):
    # a closed event ends after it starts, so end(i) <= start(j) can never
    # lead back to i: the closure of perceived precedence never raises, and
    # it adds nothing, since end(i) <= start(j) < end(j) <= start(k)
    events = temporal_features(window).events
    assert all(e.end > e.start for e in events if e.closed)
    order = order_from_events(events)
    assert temporal_closure(order).pairs == order.pairs


class TestSequenceModel:
    def test_alternating_sequence_counts(self):
        model = train_sequence_model(EventSequenceModel(order=1), ["A", "B", "A", "B"])
        assert model.counts[("A",)] == {"B": 2}
        assert model.counts[("B",)] == {"A": 1}

    def test_sequence_shorter_than_context_is_noop(self):
        model = train_sequence_model(EventSequenceModel(order=2), ["A", "B"])
        assert model.counts == {}

    def test_training_twice_doubles_counts(self):
        model = EventSequenceModel(order=1)
        train_sequence_model(model, ["A", "B", "A"])
        once = {c: dict(n) for c, n in model.counts.items()}
        train_sequence_model(model, ["A", "B", "A"])
        assert model.counts == {c: {k: 2 * v for k, v in n.items()} for c, n in once.items()}

    def test_deterministic_alternation_predicts_certainty(self):
        model = train_sequence_model(EventSequenceModel(order=1), ["A", "B", "A", "B", "A", "B"])
        prediction = predict_next(model, ["A"])
        assert prediction.distribution == {"B": 1.0}
        assert not prediction.uninformed

    def test_even_split_counts(self):
        model = train_sequence_model(EventSequenceModel(order=1), ["A", "A", "B", "A", "A", "B"])
        prediction = predict_next(model, ["X", "A"])
        assert prediction.distribution == {"A": 0.5, "B": 0.5}

    def test_unseen_context_uniform_with_flag(self):
        model = train_sequence_model(EventSequenceModel(order=1), ["A", "B"])
        prediction = predict_next(model, ["C"])
        assert prediction.uninformed
        assert prediction.distribution == {"A": 0.5, "B": 0.5}

    def test_empty_model_unseen_context_errors(self):
        with pytest.raises(ValidationError):
            predict_next(EventSequenceModel(order=1), ["A"])

    def test_history_shorter_than_order_errors(self):
        model = train_sequence_model(EventSequenceModel(order=2), ["A", "B", "C"])
        with pytest.raises(ValidationError):
            predict_next(model, ["A"])


class TestComposeSpatial:
    def test_on_top_of_left_of_composes(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("vase", "OnTopOf", "table", 1.0, 0, "perceived"))
        graph.insert(Fact("table", "LeftOf", "bed", 1.0, 0, "perceived"))
        derived = compose_spatial(graph, rule_data.composition)
        assert [(f.subject, f.relation, f.obj) for f in derived] == [("vase", "LeftOf", "bed")]

    def test_missing_entry_licenses_nothing(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("table", "LeftOf", "bed", 1.0, 0, "perceived"))
        graph.insert(Fact("bed", "Near", "window", 1.0, 0, "perceived"))
        assert compose_spatial(graph, rule_data.composition) == []

    def test_left_of_chain_composes_with_product_confidence(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("a", "LeftOf", "b", 0.8, 0, "perceived"))
        graph.insert(Fact("b", "LeftOf", "c", 0.5, 0, "perceived"))
        derived = compose_spatial(graph, rule_data.composition)
        assert [(f.subject, f.obj, f.confidence) for f in derived] == [("a", "c", 0.4)]

    def test_no_reflexive_conclusions(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("a", "LeftOf", "b", 1.0, 0, "perceived"))
        graph.insert(Fact("b", "LeftOf", "a", 1.0, 0, "perceived"))
        derived = compose_spatial(graph, rule_data.composition)
        assert all(f.subject != f.obj for f in derived)

    def test_chain_ending_in_a_number_composes(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("robot1", "LeftOf", "zz9", 0.5, 0, "asserted"))
        graph.insert(Fact("zz9", "LeftOf", 5, 0.8, 0, "asserted"))
        derived = compose_spatial(graph, rule_data.composition)
        assert [(f.subject, f.relation, f.obj, f.confidence) for f in derived] == [
            ("robot1", "LeftOf", 5, 0.4)
        ]

    def test_fixpoint_matches_exhaustive_oracle(self, rule_data):
        from oracles import random_spatial_graph

        for seed in range(60):
            graph = random_spatial_graph(random.Random(seed))
            baseline = {
                f.key(): f.confidence
                for f in graph.facts()
            }
            compose_spatial(graph, rule_data.composition)
            engine = {f.key(): round(f.confidence, 12) for f in graph.facts()}
            oracle_in = {
                (s, r, o): c
                for (s, r, o), c in (
                    ((f[0], f[1], f[2]), baseline[f]) for f in baseline
                )
            }
            oracle = exhaustive_composition(oracle_in, composition_table(rule_data.composition))
            assert engine == {k: round(v, 12) for k, v in oracle.items()}


class TestTrajectory:
    def test_constant_velocity_extrapolation(self):
        t = predict_trajectory("e", 1, (0, 0), (1, 0), horizon=3, bounds=(10, 10))
        assert t.positions == {2: (2, 0), 3: (3, 0), 4: (4, 0)}

    def test_clamped_to_grid(self):
        t = predict_trajectory("e", 1, (0, 0), (2, 1), horizon=2, bounds=(5, 5))
        assert t.positions == {2: (4, 2), 3: (4, 3)}

    def test_stationary_history_repeats_cell(self):
        t = predict_trajectory("e", 1, (3, 3), (3, 3), horizon=2, bounds=(8, 8))
        assert t.positions == {2: (3, 3), 3: (3, 3)}

    def test_horizon_stops_where_every_cell_is_clamped(self):
        t = predict_trajectory("e", 1, (0, 0), (1, 0), horizon=10**5, bounds=(3, 2))
        assert t.positions == {2: (2, 0), 3: (2, 0), 4: (2, 0)}


@settings(max_examples=300)
@given(
    bounds=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    horizon=st.integers(1, 20),
    start=st.integers(0, 50),
    cell=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    velocity=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_integer_steps_match_the_rounded_float_reference(bounds, horizon, start, cell, velocity):
    """Velocities up to past the grid's size in either direction, so steps
    clamp at every edge, and horizons longer than the grid."""
    x, y = min(cell[0], bounds[0] - 1), min(cell[1], bounds[1] - 1)
    previous = (x - velocity[0], y - velocity[1])
    made = predict_trajectory("e", start + 1, previous, (x, y), horizon, bounds)
    reference = reference_predict_trajectory("e", start + 1, previous, (x, y), horizon, bounds)
    assert made == reference
    assert all(type(c) is int for cell in made.positions.values() for c in cell)


def _unclamped_horizon(entity, t1, p0, p1, horizon, bounds):
    """Reference: every step of the horizon, with no stop at the grid's size."""
    positions = {}
    for step in range(1, horizon + 1):
        x = p1[0] + (p1[0] - p0[0]) * step
        y = p1[1] + (p1[1] - p0[1]) * step
        positions[t1 + step] = (min(max(x, 0), bounds[0] - 1), min(max(y, 0), bounds[1] - 1))
    return Trajectory(entity=entity, positions=positions)


@settings(max_examples=150)
@given(
    bounds=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    horizon=st.integers(1, 16),
    moves=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3),
                             st.integers(-3, 3)), min_size=2, max_size=2),
    eps=st.sampled_from([0.5, 1.0, 1.5]),
)
def test_horizon_past_the_grid_changes_no_prediction(bounds, horizon, moves, eps):
    made, reference = [], []
    for name, (x, y, dx, dy) in zip("ab", moves):
        x, y = min(x, bounds[0] - 1), min(y, bounds[1] - 1)
        previous = (x - dx, y - dy)
        made.append(predict_trajectory(name, 1, previous, (x, y), horizon, bounds))
        reference.append(_unclamped_horizon(name, 1, previous, (x, y), horizon, bounds))
    for t, ref in zip(made, reference):
        assert t.positions[2] == ref.positions[2]
    assert bool(detect_collision(*made, eps)) == bool(detect_collision(*reference, eps))


def _traj(entity, cells, start=0):
    return Trajectory(entity=entity, positions={start + i: c for i, c in enumerate(cells)})


class TestCollision:
    def test_identical_position_always_below_epsilon(self):
        a = _traj("a", [(1, 1)], start=5)
        b = _traj("b", [(1, 1)], start=5)
        assert detect_collision(a, b, 1.0) == [(5, 0.0)]

    def test_crossing_paths_meet_at_middle_tick(self):
        a = _traj("a", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
        b = _traj("b", [(4, 0), (3, 0), (2, 0), (1, 0), (0, 0)])
        assert detect_collision(a, b, 1.0) == [(2, 0.0)]

    def test_parallel_lanes_never_flag(self):
        a = _traj("a", [(0, 0), (1, 0), (2, 0)])
        b = _traj("b", [(0, 3), (1, 3), (2, 3)])
        assert detect_collision(a, b, 1.0) == []

    def test_disjoint_tick_ranges_yield_no_risks(self):
        a = _traj("a", [(0, 0)], start=0)
        b = _traj("b", [(0, 0)], start=9)
        assert detect_collision(a, b, 1.0) == []

    def test_non_positive_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            detect_collision(_traj("a", [(0, 0)]), _traj("b", [(0, 0)]), 0.0)

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(100):
            a = _traj("a", [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(6)])
            b = _traj("b", [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(6)],
                      start=rng.randint(0, 3))
            eps = rng.choice([0.5, 1.0, 1.5, 2.5])
            assert detect_collision(a, b, eps) == detect_collision(b, a, eps)


class TestInferConcepts:
    def test_edible_in_kitchen_is_food(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("apple1", "has_state", "edible", 1.0, 0, "perceived"))
        graph.insert(Fact("apple1", "located_in", "kitchen", 1.0, 0, "perceived"))
        derived = infer_concepts(graph, rule_data.concept_rules)
        assert [(f.subject, f.relation, f.obj) for f in derived] == [
            ("apple1", "has_function", "food")
        ]

    def test_edible_elsewhere_is_not_food(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("waxfruit1", "has_state", "edible", 1.0, 0, "perceived"))
        graph.insert(Fact("waxfruit1", "located_in", "livingroom", 1.0, 0, "perceived"))
        assert infer_concepts(graph, rule_data.concept_rules) == []

    def test_scrubs_in_clinic_implies_nurse_role(self, rule_data):
        graph = SemanticGraph()
        graph.insert(Fact("p1", "wears", "scrubs", 1.0, 0, "perceived"))
        graph.insert(Fact("p1", "located_in", "clinic", 1.0, 0, "perceived"))
        derived = infer_concepts(graph, rule_data.concept_rules)
        assert [(f.subject, f.relation, f.obj) for f in derived] == [("p1", "has_role", "nurse")]
        assert derived[0].confidence == pytest.approx(0.9)
