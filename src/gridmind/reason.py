"""Semantic reasoning: temporal, spatial, and conceptual inference engines.

All operations here are pure functions over value inputs:

* transitive closure of event precedence (with cycle reporting),
* order-k maximum-likelihood next-event prediction,
* trajectory extrapolation and threshold-based collision detection,
* dependency, function/role and spatial-composition inference, which all
  delegate to kb.forward_chain: a composition table entry r1 . r2 -> r3 is
  the rule r1(a, b), r2(b, c), a != c -> r3(a, c).
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


def apply_dependency_rules(graph: SemanticGraph, rules: list[Rule], max_iterations: int) -> list[Fact]:
    """Causal/structural dependency inference; returns new facts only."""
    return forward_chain(graph, rules, max_iterations).derived


def infer_concepts(graph: SemanticGraph, rules: list[Rule], max_iterations: int) -> list[Fact]:
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

def compose_spatial(graph: SemanticGraph, rules: list[Rule], max_iterations: int) -> list[Fact]:
    """Relation composition: the composition table's rules (one per entry,
    see `rulefmt.parse_composition`) chained to a fixpoint; new facts only."""
    return forward_chain(graph, rules, max_iterations).derived


# ---------------------------------------------------------------------------
# trajectories and collision

@dataclass
class Trajectory:
    entity: str
    positions: dict[int, tuple[int, int]] = field(default_factory=dict)


def predict_trajectory(
    entity: str,
    tick: int,
    previous: tuple[int, int],
    current: tuple[int, int],
    horizon: int,
    bounds: tuple[int, int],
) -> Trajectory:
    """Constant-velocity extrapolation from the cells observed at ticks
    `tick - 1` (`previous`) and `tick` (`current`).

    Cells are clamped to the grid. Positions and so velocities are
    integers, so each step is exact in integers: the cell a float
    extrapolation would round to (`tests/oracles.py` keeps it).
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    width, height = bounds
    cx, cy = current
    dx, dy = cx - previous[0], cy - previous[1]
    right, bottom = width - 1, height - 1
    positions: dict[int, tuple[int, int]] = {}
    # from step max(width, height) on, every cell is clamped to where it stays,
    # so a longer horizon would add only copies of the last cell
    for t in range(tick + 1, tick + min(horizon, max(width, height)) + 1):
        cx += dx
        cy += dy
        x = 0 if cx < 0 else right if cx > right else cx
        y = 0 if cy < 0 else bottom if cy > bottom else cy
        positions[t] = (x, y)
    return Trajectory(entity, positions)


def detect_collision(a: Trajectory, b: Trajectory, epsilon: float) -> list[tuple[int, float]]:
    """(tick, distance) for each tick, ascending, where the two predicted
    paths come within epsilon.

    Strict inequality, symmetric in (a, b). Disjoint tick ranges yield no
    risks.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    risks = []
    for tick in sorted(set(a.positions) & set(b.positions)):
        pa, pb = a.positions[tick], b.positions[tick]
        dist = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
        if dist < epsilon:
            risks.append((tick, dist))
    return risks


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
