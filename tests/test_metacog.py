"""Metacognitive monitoring and regulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.config import EngineConfig
from gridmind.kb import Fact
from gridmind.metacog import (
    Anomaly,
    TickState,
    monitor,
    normalize_weights,
    regulate,
)
from oracles import reference_regulate

CFG = EngineConfig()
UNIFORM = {"temporal": 1 / 3, "spatial": 1 / 3, "conceptual": 1 / 3}


def anomaly(kind, payload=("x",), severity=0.5):
    return Anomaly(kind=kind, payload=payload, severity=severity)


class TestMonitor:
    def test_event_mismatch_severity_is_predicted_probability(self):
        state = TickState(predicted_event=("move", 0.9), observed_events=("stop",))
        found = monitor(state, CFG)
        assert [a.kind for a in found] == ["PredictionMismatch"]
        assert found[0].severity == 0.9

    def test_clean_tick_yields_nothing(self):
        assert monitor(TickState(), CFG) == []

    def test_low_probability_prediction_not_flagged(self):
        state = TickState(predicted_event=("move", 0.5), observed_events=("stop",))
        assert monitor(state, CFG) == []

    def test_quiet_tick_does_not_contradict_prediction(self):
        state = TickState(predicted_event=("move", 0.9), observed_events=())
        assert monitor(state, CFG) == []

    def test_position_jump_flagged_within_tick(self):
        state = TickState(
            predicted_positions={"ball1": (5, 1)},
            observed_positions={"ball1": (7, 5)},
        )
        found = monitor(state, CFG)
        assert [a.kind for a in found] == ["PredictionMismatch"]
        assert found[0].severity == 1.0

    def test_small_deviation_tolerated(self):
        state = TickState(
            predicted_positions={"ball1": (5, 1)},
            observed_positions={"ball1": (6, 1)},
        )
        assert monitor(state, CFG) == []

    def test_contradiction_and_failure_and_cycle_and_stale(self):
        f1 = Fact("a", "LeftOf", "b", 1.0, 0, "perceived")
        f2 = Fact("a", "RightOf", "b", 1.0, 0, "perceived")
        state = TickState(
            contradictions=[(f1, f2)],
            action_failure=("PickUp", "out_of_range"),
            temporal_cycle=("ev1", "ev2", "ev1"),
            stale_keys=("cup1|isa|cup",),
        )
        found = {a.kind: a for a in monitor(state, CFG)}
        assert set(found) == {
            "Contradiction", "ActionFailure", "TemporalCycle", "StaleWorkingMemory",
        }
        assert found["ActionFailure"].severity == 1.0
        assert found["Contradiction"].severity == 0.8
        assert found["TemporalCycle"].severity == 0.9
        assert found["StaleWorkingMemory"].severity == 0.3

    def test_instability_counts_as_action_failure(self):
        state = TickState(instability=True, action_name="PlaceOn")
        found = monitor(state, CFG)
        assert [a.kind for a in found] == ["ActionFailure"]
        assert found[0].payload == ("PlaceOn", "instability")


MAPPED = {
    "PredictionMismatch": "DecayPredictionConfidence",
    "Contradiction": "RetrieveFromLTM",
    "ActionFailure": "TriggerReplan",
    "TemporalCycle": "TriggerReplan",
    "StaleWorkingMemory": "RetrieveFromLTM",
}


class TestRegulate:
    @pytest.mark.parametrize("kind,expected", sorted(MAPPED.items()))
    def test_every_class_maps_to_its_directive(self, kind, expected):
        payload = ("a|LeftOf|b", "b|LeftOf|a") if kind == "Contradiction" else ("x|isa|cup",)
        directives, _ = regulate([anomaly(kind, payload=payload)], dict(UNIFORM), CFG)
        assert expected in {d.kind for d in directives}

    def test_single_action_failure_single_replan(self):
        directives, _ = regulate([anomaly("ActionFailure")], dict(UNIFORM), CFG)
        assert [d.kind for d in directives] == ["TriggerReplan"]

    def test_empty_anomalies_change_nothing(self):
        directives, weights = regulate([], dict(UNIFORM), CFG)
        assert directives == []
        assert weights == UNIFORM

    def test_duplicate_mismatches_deduplicate_and_raise_temporal_once(self):
        anomalies = [
            anomaly("PredictionMismatch", payload=("p1",), severity=0.9),
            anomaly("PredictionMismatch", payload=("p2",), severity=0.8),
        ]
        directives, weights = regulate(anomalies, dict(UNIFORM), CFG)
        decays = [d for d in directives if d.kind == "DecayPredictionConfidence"]
        reweights = [d for d in directives if d.kind == "ReweightAttention"]
        assert len(decays) == 1
        assert len(reweights) == 1
        assert decays[0].cause is anomalies[0]
        assert reweights[0].cause is anomalies[0]
        # (1/3 + 0.1, 1/3, 1/3) renormalized: 13/33, 10/33, 10/33
        assert weights["temporal"] == pytest.approx(13 / 33, abs=1e-9)
        assert weights["spatial"] == pytest.approx(10 / 33, abs=1e-9)
        assert weights["conceptual"] == pytest.approx(10 / 33, abs=1e-9)

    def test_distinct_retrieve_patterns_both_survive(self):
        anomalies = [
            anomaly("Contradiction", payload=("a|LeftOf|b", "a|RightOf|b")),
            anomaly("Contradiction", payload=("c|Above|d", "c|Below|d")),
        ]
        directives, _ = regulate(anomalies, dict(UNIFORM), CFG)
        patterns = {d.pattern for d in directives if d.kind == "RetrieveFromLTM"}
        assert patterns == {("LeftOf", "a", "?x"), ("Above", "c", "?x")}

    def test_directives_cite_their_anomaly(self):
        a = anomaly("ActionFailure")
        directives, _ = regulate([a], dict(UNIFORM), CFG)
        assert directives[0].cause is a


class TestNormalizeWeights:
    def test_uniform_is_stable(self):
        w = normalize_weights(dict(UNIFORM), CFG.weight_min, CFG.weight_max)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)

    def test_clamps_respected_after_extreme_push(self):
        w = normalize_weights(
            {"temporal": 5.0, "spatial": 0.0, "conceptual": 0.0}, CFG.weight_min, CFG.weight_max
        )
        assert w["temporal"] <= 0.8 + 1e-12
        assert w["spatial"] >= 0.1 - 1e-12
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=120)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(MAPPED)),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=8,
    )
)
def test_weights_stay_on_clamped_simplex_under_random_streams(stream):
    weights = dict(UNIFORM)
    for kind, severity in stream:
        payload = ("a|LeftOf|b", "b|LeftOf|a") if kind == "Contradiction" else ("x|isa|cup",)
        _, weights = regulate(
            [anomaly(kind, payload=payload, severity=severity)], weights, CFG
        )
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
        for value in weights.values():
            assert 0.1 - 1e-9 <= value <= 0.8 + 1e-9


# few kinds and payloads, so that equal directives with different causes
# are common; each payload starts with an s|r|o key, as monitor makes them,
# and the last two share a retrieval pattern
DRAWN_ANOMALIES = st.lists(
    st.builds(
        Anomaly,
        st.sampled_from(sorted(MAPPED)),
        st.sampled_from(
            [("a|LeftOf|b", "a|RightOf|b"), ("c|Above|d",), ("x|isa|cup",), ("x|isa|cup", "y|isa|cup")]
        ),
        st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    ),
    max_size=10,
)
DRAWN_CONFIGS = st.sampled_from(
    [
        CFG,
        EngineConfig(prediction_decay=0.0),
        EngineConfig(reweight_delta=0.3),
        EngineConfig(weight_min=0.2, weight_max=0.5),
    ]
)


@settings(max_examples=300)
@given(
    anomalies=DRAWN_ANOMALIES,
    weights=st.fixed_dictionaries({d: st.floats(0.0, 1.0) for d in UNIFORM}),
    config=DRAWN_CONFIGS,
)
def test_regulate_matches_the_keyed_reference(anomalies, weights, config):
    directives, new_weights = regulate(anomalies, dict(weights), config)
    expected, expected_weights = reference_regulate(anomalies, dict(weights), config)
    assert [d.to_record() for d in directives] == [record for record, _ in expected]
    assert [id(d.cause) for d in directives] == [id(cause) for _, cause in expected]
    assert new_weights == expected_weights


def test_monitor_and_regulate_are_pure():
    state = TickState(
        predicted_event=("move", 0.95),
        observed_events=("stop",),
        action_failure=("Move", "out_of_bounds"),
    )
    first = monitor(state, CFG)
    second = monitor(state, CFG)
    assert first == second
    d1, w1 = regulate(first, dict(UNIFORM), CFG)
    d2, w2 = regulate(second, dict(UNIFORM), CFG)
    assert [d.to_record() for d in d1] == [d.to_record() for d in d2]
    assert w1 == w2
