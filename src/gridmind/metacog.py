"""Metacognition: monitor the tick state for anomalies, emit directives.

Monitoring compares the previous tick's predictions against what actually
happened, forwards contradictions and execution failures, and watches
working-memory staleness. Regulation maps each anomaly class onto a fixed
directive policy and re-balances the attention weights inside their clamp
bounds. A directive is equal to another that asks for the same thing,
whatever anomaly caused it, so each tick keeps one of each, citing the
first cause. Both passes are pure given the tick state, so a replayed
trace reproduces them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import EngineConfig
from .kb import Fact

ANOMALY_KINDS = (
    "PredictionMismatch",
    "Contradiction",
    "ActionFailure",
    "TemporalCycle",
    "StaleWorkingMemory",
)

WEIGHT_DIMS = ("temporal", "spatial", "conceptual")


@dataclass(frozen=True)
class Anomaly:
    kind: str
    payload: tuple[str, ...]
    severity: float

    def __post_init__(self) -> None:
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}")
        if not self.payload:
            raise ValueError("anomaly payload must be non-empty")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"severity {self.severity} outside [0, 1]")

    def to_record(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "payload": list(self.payload),
            "severity": self.severity,
        }


@dataclass(frozen=True)
class Directive:
    kind: str
    cause: Anomaly = field(compare=False)
    dimension: str | None = None
    delta: float | None = None
    factor: float | None = None
    pattern: tuple[str, str, str] | None = None

    def to_record(self) -> dict[str, object]:
        record: dict[str, object] = {"kind": self.kind, "cause": self.cause.kind}
        if self.dimension is not None:
            record["dimension"] = self.dimension
        if self.delta is not None:
            record["delta"] = self.delta
        if self.factor is not None:
            record["factor"] = self.factor
        if self.pattern is not None:
            record["pattern"] = list(self.pattern)
        return record


@dataclass
class TickState:
    """Everything the monitor looks at for one tick."""

    predicted_event: tuple[str, float] | None = None
    observed_events: tuple[str, ...] = ()
    predicted_positions: dict[str, tuple[int, int]] = field(default_factory=dict)
    observed_positions: dict[str, tuple[int, int]] = field(default_factory=dict)
    contradictions: list[tuple[Fact, Fact]] = field(default_factory=list)
    temporal_cycle: tuple[str, ...] | None = None
    action_failure: tuple[str, ...] | None = None
    instability: bool = False
    action_name: str | None = None
    stale_keys: tuple[str, ...] = ()


def monitor(state: TickState, config: EngineConfig) -> list[Anomaly]:
    """Deterministic anomaly detection for one tick."""
    anomalies: list[Anomaly] = []

    # kind prediction concerns the next event that occurs; a tick without
    # any new event is not evidence against it
    if state.predicted_event is not None and state.observed_events:
        kind, prob = state.predicted_event
        if prob >= config.prediction_threshold and kind not in state.observed_events:
            observed = ",".join(state.observed_events)
            payload = (f"predicted:{kind}", f"observed:{observed}")
            anomalies.append(Anomaly("PredictionMismatch", payload, min(prob, 1.0)))
    for entity in sorted(state.predicted_positions):
        predicted = state.predicted_positions[entity]
        observed = state.observed_positions.get(entity)
        if observed is None:
            continue
        deviation = math.hypot(observed[0] - predicted[0], observed[1] - predicted[1])
        if deviation >= config.mismatch_distance:
            payload = (
                entity,
                f"predicted:{predicted[0]},{predicted[1]}",
                f"observed:{observed[0]},{observed[1]}",
            )
            anomalies.append(Anomaly("PredictionMismatch", payload, 1.0))
    for first, second in state.contradictions:
        payload = ("|".join(first.key()), "|".join(second.key()))
        anomalies.append(Anomaly("Contradiction", payload, config.severity_contradiction))
    if state.action_failure is not None:
        anomalies.append(
            Anomaly("ActionFailure", state.action_failure, config.severity_action_failure)
        )
    elif state.instability:
        payload = (state.action_name or "action", "instability")
        anomalies.append(Anomaly("ActionFailure", payload, config.severity_action_failure))
    if state.temporal_cycle is not None:
        anomalies.append(
            Anomaly("TemporalCycle", state.temporal_cycle, config.severity_temporal_cycle)
        )
    for key in state.stale_keys:
        anomalies.append(Anomaly("StaleWorkingMemory", (key,), config.severity_stale))
    return anomalies


def _pattern_from_payload(payload: tuple[str, ...]) -> tuple[str, str, str]:
    """Retrieval pattern over the subject and relation of a conflicting or
    stale fact, whose `s|r|o` key starts the payload."""
    subject, relation, _ = payload[0].split("|", 2)
    return (relation, subject, "?x")


def regulate(
    anomalies: list[Anomaly], weights: dict[str, float], config: EngineConfig
) -> tuple[list[Directive], dict[str, float]]:
    """Fixed anomaly -> directive policy plus attention re-weighting.

    Equal directives within the tick collapse into the first, which keeps
    its cause; weight deltas are applied once per surviving
    ReweightAttention and the result is clamped to [weight_min, weight_max]
    and renormalized to 1.
    """
    proposed: list[Directive] = []
    for anomaly in anomalies:
        if anomaly.kind == "PredictionMismatch":
            proposed.append(Directive("DecayPredictionConfidence", anomaly, factor=config.prediction_decay))
            proposed.append(Directive("ReweightAttention", anomaly, dimension="temporal", delta=config.reweight_delta))
        elif anomaly.kind == "Contradiction":
            proposed.append(Directive("RetrieveFromLTM", anomaly, pattern=_pattern_from_payload(anomaly.payload)))
            proposed.append(Directive("ReweightAttention", anomaly, dimension="spatial", delta=config.reweight_delta))
        elif anomaly.kind in ("ActionFailure", "TemporalCycle"):
            proposed.append(Directive("TriggerReplan", anomaly))
        elif anomaly.kind == "StaleWorkingMemory":
            proposed.append(Directive("RetrieveFromLTM", anomaly, pattern=_pattern_from_payload(anomaly.payload)))
    # a dict keeps the first of equal keys, and so the first cause
    directives = list(dict.fromkeys(proposed))

    new_weights = dict(weights)
    for directive in directives:
        if directive.kind == "ReweightAttention":
            dim = directive.dimension
            new_weights[dim] = new_weights.get(dim, 0.0) + directive.delta
    return directives, normalize_weights(new_weights, config.weight_min, config.weight_max)


def normalize_weights(weights: dict[str, float], low: float, high: float) -> dict[str, float]:
    """Project onto the clamped simplex: each dim in [low, high], sum 1.

    Alternates proportional rescaling (sum to 1) with clamping until both
    constraints hold, or stops after 200 passes; fully deterministic.
    """
    values = {d: min(high, max(low, float(weights.get(d, low)))) for d in WEIGHT_DIMS}
    for _ in range(200):
        total = sum(values[d] for d in WEIGHT_DIMS)
        if abs(total - 1.0) <= 1e-12:
            break
        values = {d: values[d] / total for d in WEIGHT_DIMS}
        values = {d: min(high, max(low, values[d])) for d in WEIGHT_DIMS}
    return values
