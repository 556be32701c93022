"""Semantic perception: three parallel feature pathways plus binding.

Observations are split into temporal (events), spatial (ego offsets from
the agent and supports), and conceptual (category/material/shape/function)
features. A deterministic weighted-salience attention pass then binds the
per-entity features into one BoundObject per entity; downstream layers
receive both the bound objects and the tick's perceived facts, one list
per dimension, which cognition inserts into the unified graph.

Emission policy (what becomes a fact; attributes go to the conceptual
list, the movement state to the temporal one, the rest is spatial):

* every sensed entity: at(e, "x,y") and located_in(e, region),
* visible entities: isa/color/size/material/shape/has_state/affords,
* stacked entities relate to the world only through OnTopOf(e, support);
  their pairwise relations are left to the composition table downstream,
* free-standing entities get pairwise Near (< near_distance) and exact
  cardinal LeftOf/RightOf/Above/Below facts, computed from the two
  readings' positions; the pairs tested are only those that can pass,
  found in cell buckets (`_candidate_pairs`): a shared row, a shared
  column, or neighbouring cells of width ceil(near_distance),
* containment is sensed on the container: Contains(c, x) and Inside(x, c),
* an open movement event yields has_state(e, moving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from json.encoder import encode_basestring

from . import canonical, cells
from .kb import Fact, ValidationError

# fixed salience table for the attention pass
SALIENCE_MOVING = 1.0
SALIENCE_STATE_FLAG = 0.9
SALIENCE_ADJACENT = 0.8
SALIENCE_TASK = 1.0
SALIENCE_DEFAULT = 0.3
STATE_SALIENCE_FLAGS = frozenset({"hot", "wet", "powered"})

# signs of b's offset from a (y grows southward) -> relation(a, b)
_CARDINAL = {(1, 0): "LeftOf", (-1, 0): "RightOf", (0, 1): "Above", (0, -1): "Below"}


@dataclass(frozen=True)
class Reading:
    """One entity's sensor reading for a tick.

    Occluded entities expose position only: attributes and flags are None.
    """

    entity: str
    position: tuple[int, int]
    region: str | None = None
    occluded: bool = False
    attributes: dict[str, object] | None = None
    flags: frozenset[str] | None = None
    contains: tuple[str, ...] = ()
    on: str | None = None

    def visible_flags(self) -> frozenset[str]:
        return self.flags if self.flags is not None else frozenset()

    @cached_property
    def text(self) -> str:
        """This reading's canonical JSON in the observation digest, encoded
        on first use and kept (not a field: eq and repr ignore it)."""
        attrs = self.attributes
        return canonical.dumps(
            {
                "pos": list(self.position),
                "region": self.region,
                "occluded": self.occluded,
                "attrs": {k: attrs[k] for k in sorted(attrs)} if attrs else None,
                "flags": sorted(self.flags) if self.flags is not None else None,
                "contains": list(self.contains),
                "on": self.on,
            }
        )


@dataclass(frozen=True)
class Observation:
    tick: int
    readings: dict[str, Reading]

    def entities(self) -> list[str]:
        return sorted(self.readings)

    def digest_text(self) -> str:
        """Canonical JSON of the tick and every reading by entity id: the
        text the trace's observation digest hashes."""
        readings = ",".join(
            encode_basestring(e) + ":" + self.readings[e].text for e in self.entities()
        )
        return f'{{"tick":{self.tick},"readings":{{{readings}}}}}'


@dataclass(frozen=True)
class Event:
    event_id: str
    entity: str
    kind: str
    start: int
    end: int | None = None

    @property
    def closed(self) -> bool:
        return self.end is not None


@dataclass
class TemporalFeatures:
    events: list[Event] = field(default_factory=list)

    @cached_property
    def by_entity(self) -> dict[str, list[Event]]:
        """The events grouped by entity, each group in event order. Grouped
        on first use and kept: the events do not change once extracted."""
        index: dict[str, list[Event]] = {}
        for event in self.events:
            index.setdefault(event.entity, []).append(event)
        return index

    def events_for(self, entity: str) -> list[Event]:
        return self.by_entity.get(entity, [])

    def open_events_for(self, entity: str) -> list[Event]:
        return [e for e in self.events_for(entity) if not e.closed]

    def starting_at(self, tick: int) -> list[Event]:
        return [e for e in self.events if e.start == tick]


@dataclass
class SpatialFeatures:
    locations: dict[str, tuple[int, int]] = field(default_factory=dict)  # ego offsets
    supports: dict[str, str] = field(default_factory=dict)
    agent: str = ""


@dataclass(frozen=True)
class ConceptRecord:
    entity: str
    category: str | None
    material: str | None
    shape: str | None
    color: str | None
    size: int | None
    flags: frozenset[str]
    functions: tuple[str, ...]


@dataclass
class ConceptualFeatures:
    records: dict[str, ConceptRecord] = field(default_factory=dict)


@dataclass(frozen=True)
class BoundObject:
    entity: str
    score: float
    below_threshold: bool


def extract_temporal(window: list[Observation]) -> TemporalFeatures:
    """Edge-triggered event detection over a consecutive-tick window.

    A flag that is already on at the first observation opens an event at
    the window start; a rising edge opens one; a falling edge closes it at
    the first off tick. The movement flag maps to event kind "move".
    """
    if not window:
        raise ValidationError("observation window must be non-empty")
    for prev, cur in zip(window, window[1:]):
        if cur.tick != prev.tick + 1:
            raise ValidationError(
                f"observation window ticks not consecutive: {prev.tick} -> {cur.tick}"
            )
    entities = sorted({e for obs in window for e in obs.readings})
    raw: list[tuple[int, str, str, int | None]] = []
    for entity in entities:
        seen_flags: set[str] = set()
        for obs in window:
            reading = obs.readings.get(entity)
            if reading is not None:
                seen_flags |= reading.visible_flags()
        for flag in sorted(seen_flags):
            open_start: int | None = None
            for obs in window:
                reading = obs.readings.get(entity)
                on = reading is not None and flag in reading.visible_flags()
                if on and open_start is None:
                    open_start = obs.tick
                elif not on and open_start is not None:
                    raw.append((open_start, entity, _event_kind(flag), obs.tick))
                    open_start = None
            if open_start is not None:
                raw.append((open_start, entity, _event_kind(flag), None))
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return TemporalFeatures(
        events=[
            Event(event_id=f"ev{n}", entity=entity, kind=kind, start=start, end=end)
            for n, (start, entity, kind, end) in enumerate(raw, start=1)
        ]
    )


def _event_kind(flag: str) -> str:
    return "move" if flag == "moving" else flag


def extract_spatial(obs: Observation, agent: str) -> SpatialFeatures:
    """Per-entity offsets from the agent, plus what each entity rests on."""
    agent_reading = obs.readings.get(agent)
    if agent_reading is None:
        raise ValidationError(f"agent {agent!r} absent from observation")
    if agent_reading.occluded:
        raise ValidationError(f"agent {agent!r} occluded; cannot self-localize")
    ax, ay = agent_reading.position
    features = SpatialFeatures(agent=agent)
    for entity in obs.entities():
        reading = obs.readings[entity]
        x, y = reading.position
        features.locations[entity] = (x - ax, y - ay)
        if reading.on is not None:
            features.supports[entity] = reading.on
    return features


def extract_conceptual(
    obs: Observation, lexicon: dict[str, tuple[str, ...]] | None = None
) -> ConceptualFeatures:
    """Copy appearance attributes; affordances come from the lexicon."""
    lexicon = lexicon or {}
    features = ConceptualFeatures()
    for entity in obs.entities():
        reading = obs.readings[entity]
        if reading.occluded:
            continue
        attrs = reading.attributes or {}
        category = attrs.get("category")
        functions = lexicon.get(category, ()) if isinstance(category, str) else ()
        features.records[entity] = ConceptRecord(
            entity=entity,
            category=category if isinstance(category, str) else None,
            material=attrs.get("material"),  # type: ignore[arg-type]
            shape=attrs.get("shape"),  # type: ignore[arg-type]
            color=attrs.get("color"),  # type: ignore[arg-type]
            size=attrs.get("size"),  # type: ignore[arg-type]
            flags=reading.visible_flags(),
            functions=tuple(functions),
        )
    return features


def attention_score(
    presence: dict[str, bool], salience: dict[str, float], weights: dict[str, float]
) -> float:
    """score = sum over dimensions of weight * presence * salience."""
    total = 0.0
    for dim in ("temporal", "spatial", "conceptual"):
        if presence.get(dim):
            total += weights[dim] * salience.get(dim, 0.0)
    return total


def validate_weights(weights: dict[str, float]) -> None:
    expected = {"temporal", "spatial", "conceptual"}
    if set(weights) != expected:
        raise ValidationError(f"attention weights must have keys {sorted(expected)}")
    if any(w < 0 for w in weights.values()):
        raise ValidationError("attention weights must be non-negative")
    if abs(sum(weights.values()) - 1.0) > 1e-9:
        raise ValidationError(f"attention weights must sum to 1, got {sum(weights.values())}")


def attend_and_bind(
    ft: TemporalFeatures,
    fs: SpatialFeatures,
    fc: ConceptualFeatures,
    weights: dict[str, float],
    task_refs: frozenset[str] = frozenset(),
    threshold: float = 0.25,
) -> list[BoundObject]:
    """Bind per-entity features into one object per entity.

    Entities scoring below the threshold are still emitted, only flagged;
    filtering is the caller's concern. Output order: score descending,
    entity id ascending.
    """
    validate_weights(weights)
    entities = sorted(set(ft.by_entity) | set(fs.locations) | set(fc.records))
    bound: list[BoundObject] = []
    for entity in entities:
        events = ft.events_for(entity)
        open_events = [e for e in events if not e.closed]
        record = fc.records.get(entity)
        ego = fs.locations.get(entity)
        presence = {
            "temporal": bool(events),
            "spatial": ego is not None,
            "conceptual": record is not None,
        }
        task_ref = entity in task_refs or entity == fs.agent

        sal_t = SALIENCE_DEFAULT
        if any(e.kind == "move" for e in open_events):
            sal_t = SALIENCE_MOVING
        elif open_events:
            sal_t = SALIENCE_STATE_FLAG
        sal_s = SALIENCE_DEFAULT
        if ego is not None and math.hypot(*ego) < 2.0:
            sal_s = SALIENCE_ADJACENT
        sal_c = SALIENCE_DEFAULT
        if record is not None and record.flags & STATE_SALIENCE_FLAGS:
            sal_c = SALIENCE_STATE_FLAG
        salience = {"temporal": sal_t, "spatial": sal_s, "conceptual": sal_c}
        if task_ref:
            salience = {d: max(s, SALIENCE_TASK) for d, s in salience.items()}

        score = attention_score(presence, salience, weights)
        bound.append(BoundObject(entity, score, below_threshold=score < threshold))
    bound.sort(key=lambda b: (-b.score, b.entity))
    return bound


def build_dimension_graphs(
    obs: Observation,
    ft: TemporalFeatures,
    fs: SpatialFeatures,
    fc: ConceptualFeatures,
    near_distance: float = 2.0,
) -> tuple[list[Fact], list[Fact], list[Fact], dict[str, list[Fact]]]:
    """This tick's temporal, spatial and conceptual facts, one list each.

    Also returns the facts grouped by owning entity so working-memory
    salience can follow the attention scores.
    """
    tick = obs.tick
    t_facts, s_facts, c_facts = [], [], []
    by_entity: dict[str, list[Fact]] = {e: [] for e in obs.entities()}

    def emit(facts: list[Fact], owner: str, subject: str, relation: str, obj) -> None:
        fact = Fact(subject, relation, obj, 1.0, tick, "perceived")
        facts.append(fact)
        by_entity.setdefault(owner, []).append(fact)

    for entity in obs.entities():
        reading = obs.readings[entity]
        x, y = reading.position
        emit(s_facts, entity, entity, "at", f"{x},{y}")
        if reading.region is not None:
            emit(s_facts, entity, entity, "located_in", reading.region)
        for contained in reading.contains:
            emit(s_facts, entity, entity, "Contains", contained)
            emit(s_facts, contained, contained, "Inside", entity)
        record = fc.records.get(entity)
        if record is not None:
            if record.category:
                emit(c_facts, entity, entity, "isa", record.category)
            if record.color:
                emit(c_facts, entity, entity, "color", record.color)
            if record.size is not None:
                emit(c_facts, entity, entity, "size", record.size)
            if record.material:
                emit(c_facts, entity, entity, "material", record.material)
            if record.shape:
                emit(c_facts, entity, entity, "shape", record.shape)
            for flag in sorted(record.flags):
                if flag != "moving":
                    emit(c_facts, entity, entity, "has_state", flag)
            for function in record.functions:
                emit(c_facts, entity, entity, "affords", function)
        if any(e.kind == "move" for e in ft.open_events_for(entity)):
            emit(t_facts, entity, entity, "has_state", "moving")

    free = [
        e
        for e in obs.entities()
        if e not in fs.supports and "carried" not in obs.readings[e].visible_flags()
    ]
    for entity, support in sorted(fs.supports.items()):
        emit(s_facts, entity, entity, "OnTopOf", support)
    positions = [obs.readings[e].position for e in free]
    for i, j in _candidate_pairs(positions, near_distance):
        a = free[i]
        ax, ay = positions[i]
        bx, by = positions[j]
        dx, dy = bx - ax, by - ay
        if math.hypot(dx, dy) < near_distance:
            emit(s_facts, a, a, "Near", free[j])
        relation = _CARDINAL.get(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
        if relation:
            emit(s_facts, a, a, relation, free[j])
    return t_facts, s_facts, c_facts, by_entity


def _candidate_pairs(positions: list[tuple[int, int]], near_distance: float):
    """Every ordered pair (i, j), i != j, of positions that may be Near
    (closer than `near_distance`) or exactly cardinal (one row or one
    column), in sorted order: `a` in list order, then `b` in list order.

    A position's candidates lie in its row, its column and the
    `cells.NEIGHBOURHOOD` cells of width ceil(near_distance) around it.
    With no more positions than those cells, every pair is a candidate.
    """
    n = len(positions)
    if n <= cells.NEIGHBOURHOOD:
        return permutations(range(n), 2)
    rows: dict[int, list[int]] = {}
    columns: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(positions):
        rows.setdefault(y, []).append(i)
        columns.setdefault(x, []).append(i)
    pairs: set[tuple[int, int]] = set()
    for line in (*rows.values(), *columns.values()):
        pairs.update(combinations(line, 2))
    if near_distance > 0:
        points = ((i, None, x, y) for i, (x, y) in enumerate(positions))
        pairs |= cells.close_pairs(points, math.ceil(near_distance))
    return sorted(pairs | {(j, i) for i, j in pairs})
