"""Semantic reasoning: temporal, spatial, and conceptual inference engines.

All operations here are pure functions over value inputs:

* transitive closure of event precedence (with cycle reporting),
* order-k maximum-likelihood next-event prediction,
* pairwise relation composition over the spatial vocabulary,
* trajectory extrapolation and threshold-based collision detection,
* dependency/function/role inference, which delegate to kb.forward_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kb import (
    Fact,
    Rule,
    SemanticGraph,
    ValidationError,
    forward_chain,
)

SPATIAL_VOCABULARY = frozenset(
    {"LeftOf", "RightOf", "Above", "Below", "OnTopOf", "Inside", "Near"}
)


class TemporalInconsistencyError(ValidationError):
    """Raised when the precedence relation contains a cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        super().__init__(f"temporal precedence cycle: {' < '.join(cycle)}")
        self.cycle = cycle


@dataclass
class TemporalOrder:
    pairs: set[tuple[str, str]] = field(default_factory=set)

    def add(self, before: str, after: str) -> None:
        if before == after:
            raise TemporalInconsistencyError((before, after))
        self.pairs.add((before, after))

    def nodes(self) -> list[str]:
        return sorted({n for pair in self.pairs for n in pair})


def _find_cycle(pairs: set[tuple[str, str]]) -> tuple[str, ...] | None:
    succ: dict[str, list[str]] = {}
    for a, b in sorted(pairs):
        succ.setdefault(a, []).append(b)
    state: dict[str, int] = {}  # 0 unvisited, 1 on stack, 2 done
    stack: list[str] = []

    def visit(node: str) -> tuple[str, ...] | None:
        state[node] = 1
        stack.append(node)
        for nxt in succ.get(node, []):
            if state.get(nxt, 0) == 1:
                i = stack.index(nxt)
                return tuple(stack[i:] + [nxt])
            if state.get(nxt, 0) == 0:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(succ):
        if state.get(node, 0) == 0:
            found = visit(node)
            if found:
                return found
    return None


def temporal_closure(order: TemporalOrder) -> TemporalOrder:
    """Transitive closure of the precedence relation (Warshall).

    A cycle is an inconsistency in the agent's timeline, not a crash site:
    it raises TemporalInconsistencyError carrying the offending cycle so
    the metacognition layer can turn it into an anomaly.
    """
    cycle = _find_cycle(order.pairs)
    if cycle:
        raise TemporalInconsistencyError(cycle)
    nodes = order.nodes()
    closed = set(order.pairs)
    for k in nodes:
        for i in nodes:
            if (i, k) not in closed:
                continue
            for j in nodes:
                if (k, j) in closed:
                    closed.add((i, j))
    for node in nodes:
        if (node, node) in closed:
            raise TemporalInconsistencyError((node, node))
    return TemporalOrder(pairs=closed)


def apply_dependency_rules(graph: SemanticGraph, rules: list[Rule], max_iterations: int = 100) -> list[Fact]:
    """Causal/structural dependency inference; returns new facts only."""
    return forward_chain(graph, rules, max_iterations).derived


def infer_concepts(graph: SemanticGraph, rules: list[Rule], max_iterations: int = 100) -> list[Fact]:
    """Function/role inference (conclusions use has_function / has_role)."""
    return forward_chain(graph, rules, max_iterations).derived


# ---------------------------------------------------------------------------
# next-event prediction

@dataclass
class EventSequenceModel:
    """Order-k transition counts over event kinds."""

    order: int = 1
    counts: dict[tuple[str, ...], dict[str, int]] = field(default_factory=dict)
    kinds: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValidationError("sequence model order must be >= 1")


@dataclass
class Prediction:
    distribution: dict[str, float]
    uninformed: bool = False

    def top(self) -> tuple[str, float]:
        best = max(self.distribution.items(), key=lambda kv: (kv[1], kv[0]))
        # deterministic tie-break: highest probability, then first kind in
        # lexicographic order among the tied
        top_p = best[1]
        tied = sorted(k for k, p in self.distribution.items() if p == top_p)
        return tied[0], top_p


def train_sequence_model(model: EventSequenceModel, sequence: list[str]) -> EventSequenceModel:
    """Accumulate transition counts; too-short sequences change nothing."""
    k = model.order
    model.kinds.update(sequence)
    for i in range(len(sequence) - k):
        context = tuple(sequence[i : i + k])
        nxt = sequence[i + k]
        slot = model.counts.setdefault(context, {})
        slot[nxt] = slot.get(nxt, 0) + 1
    return model


def predict_next(model: EventSequenceModel, history: list[str]) -> Prediction:
    """Maximum-likelihood next-kind distribution for the trailing context.

    Unseen contexts fall back to a uniform distribution over every kind
    the model has seen anywhere, flagged `uninformed`.
    """
    k = model.order
    if len(history) < k:
        raise ValidationError(f"history shorter than model order {k}")
    context = tuple(history[-k:])
    slot = model.counts.get(context)
    if slot:
        total = sum(slot.values())
        return Prediction({kind: slot[kind] / total for kind in sorted(slot)})
    support = sorted(model.kinds)
    if not support:
        raise ValidationError("empty model and unseen context: no support to predict over")
    p = 1.0 / len(support)
    return Prediction({kind: p for kind in support}, uninformed=True)


# ---------------------------------------------------------------------------
# spatial composition

def compose_spatial(
    graph: SemanticGraph, table: dict[tuple[str, str], str], max_iterations: int = 1000
) -> list[Fact]:
    """Apply r1(a,b) & r2(b,c) -> r3(a,c) table entries to a fixpoint.

    Only facts in the spatial vocabulary participate; a == c chains are
    skipped (no reflexive spatial relations). Derived confidence is the
    product of the two premises, max-merged into the graph.
    """
    before = {f.key() for f in graph.facts()}
    for _ in range(max_iterations):
        spatial = [f for f in graph.facts() if f.relation in SPATIAL_VOCABULARY]
        by_subject: dict[str, list[Fact]] = {}
        for fact in spatial:
            by_subject.setdefault(fact.subject, []).append(fact)
        changed = False
        for first in spatial:
            if not isinstance(first.obj, str):
                continue
            for second in by_subject.get(first.obj, []):
                relation = table.get((first.relation, second.relation))
                if relation is None:
                    continue
                if not isinstance(second.obj, str) or first.subject == second.obj:
                    continue
                derived = Fact(
                    first.subject,
                    relation,
                    second.obj,
                    first.confidence * second.confidence,
                    max(first.tick, second.tick),
                    "derived",
                )
                if graph.insert_improves(derived):
                    changed = True
        if not changed:
            break
    return [f for f in graph.facts() if f.key() not in before]


# ---------------------------------------------------------------------------
# trajectories and collision

@dataclass
class Trajectory:
    entity: str
    positions: dict[int, tuple[int, int]] = field(default_factory=dict)
    low_confidence: bool = False


@dataclass
class CollisionReport:
    risks: list[tuple[int, float]] = field(default_factory=list)
    no_overlap: bool = False


def predict_trajectory(
    entity: str,
    history: list[tuple[int, tuple[int, int]]],
    horizon: int,
    bounds: tuple[int, int],
) -> Trajectory:
    """Constant-velocity extrapolation from the last two observations.

    A single observed position yields a stationary trajectory flagged
    low_confidence. Cells are clamped to the grid.
    """
    if not history:
        raise ValidationError("cannot predict a trajectory from no observations")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    width, height = bounds
    history = sorted(history)
    (t1, p1) = history[-1]
    if len(history) == 1:
        velocity = (0.0, 0.0)
        low = True
    else:
        (t0, p0) = history[-2]
        if t1 != t0 + 1:
            raise ValidationError("trajectory history positions must be at consecutive ticks")
        velocity = (float(p1[0] - p0[0]), float(p1[1] - p0[1]))
        low = False
    trajectory = Trajectory(entity=entity, low_confidence=low)
    for step in range(1, horizon + 1):
        x = p1[0] + velocity[0] * step
        y = p1[1] + velocity[1] * step
        cx = min(max(int(math.floor(x + 0.5)), 0), width - 1)
        cy = min(max(int(math.floor(y + 0.5)), 0), height - 1)
        trajectory.positions[t1 + step] = (cx, cy)
    return trajectory


def detect_collision(a: Trajectory, b: Trajectory, epsilon: float) -> CollisionReport:
    """Ticks (ascending) where the two predicted paths come within epsilon.

    Strict inequality, symmetric in (a, b). Disjoint tick ranges yield an
    empty report with the no_overlap flag set.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    shared = sorted(set(a.positions) & set(b.positions))
    if not shared:
        return CollisionReport(no_overlap=True)
    report = CollisionReport()
    for tick in shared:
        pa, pb = a.positions[tick], b.positions[tick]
        dist = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
        if dist < epsilon:
            report.risks.append((tick, dist))
    return report


def order_from_events(events) -> TemporalOrder:
    """Precedence from closed events: i before j iff end(i) <= start(j)."""
    order = TemporalOrder()
    for first in events:
        if first.end is None:
            continue
        for second in events:
            if second.event_id != first.event_id and first.end <= second.start:
                order.add(first.event_id, second.event_id)
    return order
