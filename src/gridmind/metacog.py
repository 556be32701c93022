"""Metacognition: monitor the tick state for anomalies, emit directives.

Monitoring compares the previous tick's predictions against what actually
happened, forwards contradictions and execution failures, and watches
working-memory staleness. Regulation maps each anomaly class onto a fixed
directive policy and re-balances the attention weights inside their clamp
bounds. Both passes are pure given the tick state, so a replayed trace
reproduces them exactly.
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
    tick: int
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
    tick: int
    cause: Anomaly
    dimension: str | None = None
    delta: float | None = None
    factor: float | None = None
    pattern: tuple[str, str, str] | None = None

    def params_key(self) -> tuple:
        return (self.kind, self.dimension, self.delta, self.factor, self.pattern)

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

    tick: int
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


def monitor(state: TickState, config: EngineConfig | None = None) -> list[Anomaly]:
    """Deterministic anomaly detection for one tick."""
    cfg = config or EngineConfig()
    anomalies: list[Anomaly] = []

    # kind prediction concerns the next event that occurs; a tick without
    # any new event is not evidence against it
    if state.predicted_event is not None and state.observed_events:
        kind, prob = state.predicted_event
        if prob >= cfg.prediction_threshold and kind not in state.observed_events:
            observed = ",".join(state.observed_events)
            anomalies.append(
                Anomaly(
                    kind="PredictionMismatch",
                    tick=state.tick,
                    payload=(f"predicted:{kind}", f"observed:{observed}"),
                    severity=min(prob, 1.0),
                )
            )
    for entity in sorted(state.predicted_positions):
        predicted = state.predicted_positions[entity]
        observed = state.observed_positions.get(entity)
        if observed is None:
            continue
        deviation = math.hypot(observed[0] - predicted[0], observed[1] - predicted[1])
        if deviation >= cfg.mismatch_distance:
            anomalies.append(
                Anomaly(
                    kind="PredictionMismatch",
                    tick=state.tick,
                    payload=(
                        entity,
                        f"predicted:{predicted[0]},{predicted[1]}",
                        f"observed:{observed[0]},{observed[1]}",
                    ),
                    severity=1.0,
                )
            )
    for first, second in state.contradictions:
        anomalies.append(
            Anomaly(
                kind="Contradiction",
                tick=state.tick,
                payload=("|".join(first.key()), "|".join(second.key())),
                severity=cfg.severity_contradiction,
            )
        )
    if state.action_failure is not None:
        anomalies.append(
            Anomaly(
                kind="ActionFailure",
                tick=state.tick,
                payload=state.action_failure,
                severity=cfg.severity_action_failure,
            )
        )
    elif state.instability:
        anomalies.append(
            Anomaly(
                kind="ActionFailure",
                tick=state.tick,
                payload=(state.action_name or "action", "instability"),
                severity=cfg.severity_action_failure,
            )
        )
    if state.temporal_cycle is not None:
        anomalies.append(
            Anomaly(
                kind="TemporalCycle",
                tick=state.tick,
                payload=state.temporal_cycle,
                severity=cfg.severity_temporal_cycle,
            )
        )
    for key in state.stale_keys:
        anomalies.append(
            Anomaly(
                kind="StaleWorkingMemory",
                tick=state.tick,
                payload=(key,),
                severity=cfg.severity_stale,
            )
        )
    return anomalies


def _pattern_from_payload(payload: tuple[str, ...]) -> tuple[str, str, str]:
    """Retrieval pattern over a conflicting/stale triple's subject+relation."""
    head = payload[0]
    parts = head.split("|")
    if len(parts) >= 2:
        return (parts[1], parts[0], "?x")
    return ("isa", head, "?x")


def regulate(
    anomalies: list[Anomaly],
    weights: dict[str, float],
    config: EngineConfig | None = None,
) -> tuple[list[Directive], dict[str, float]]:
    """Fixed anomaly -> directive policy plus attention re-weighting.

    Directives are deduplicated by (kind, parameters) within the tick;
    weight deltas are applied once per surviving ReweightAttention and the
    result is clamped to [weight_min, weight_max] and renormalized to 1.
    """
    cfg = config or EngineConfig()
    directives: list[Directive] = []
    seen: set[tuple] = set()

    def add(directive: Directive) -> None:
        key = directive.params_key()
        if key not in seen:
            seen.add(key)
            directives.append(directive)

    for anomaly in anomalies:
        if anomaly.kind == "PredictionMismatch":
            add(Directive("DecayPredictionConfidence", anomaly.tick, anomaly, factor=cfg.prediction_decay))
            add(Directive("ReweightAttention", anomaly.tick, anomaly, dimension="temporal", delta=cfg.reweight_delta))
        elif anomaly.kind == "Contradiction":
            add(Directive("RetrieveFromLTM", anomaly.tick, anomaly, pattern=_pattern_from_payload(anomaly.payload)))
            add(Directive("ReweightAttention", anomaly.tick, anomaly, dimension="spatial", delta=cfg.reweight_delta))
        elif anomaly.kind == "ActionFailure":
            add(Directive("TriggerReplan", anomaly.tick, anomaly))
        elif anomaly.kind == "TemporalCycle":
            add(Directive("TriggerReplan", anomaly.tick, anomaly))
        elif anomaly.kind == "StaleWorkingMemory":
            add(Directive("RetrieveFromLTM", anomaly.tick, anomaly, pattern=_pattern_from_payload(anomaly.payload)))

    new_weights = dict(weights)
    for directive in directives:
        if directive.kind == "ReweightAttention" and directive.dimension:
            new_weights[directive.dimension] = new_weights.get(directive.dimension, 0.0) + (
                directive.delta or 0.0
            )
    new_weights = normalize_weights(new_weights, cfg.weight_min, cfg.weight_max)
    return directives, new_weights


def normalize_weights(
    weights: dict[str, float], low: float = 0.1, high: float = 0.8
) -> dict[str, float]:
    """Project onto the clamped simplex: each dim in [low, high], sum 1.

    Alternates proportional rescaling (sum to 1) with clamping until both
    constraints hold; converges geometrically and is fully deterministic.
    """
    values = {d: min(high, max(low, float(weights.get(d, low)))) for d in WEIGHT_DIMS}
    for _ in range(200):
        total = sum(values[d] for d in WEIGHT_DIMS)
        if abs(total - 1.0) <= 1e-12:
            break
        values = {d: values[d] / total for d in WEIGHT_DIMS}
        values = {d: min(high, max(low, values[d])) for d in WEIGHT_DIMS}
    return values
