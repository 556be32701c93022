"""Semantic perception: three parallel feature pathways plus binding.

Observations are split into temporal (events), spatial (distances/
directions/locations), and conceptual (category/material/shape/function)
features. A deterministic weighted-salience attention pass then binds the
per-entity features into one BoundObject per entity; downstream layers
receive both the bound objects and per-dimension fact graphs.

Graph emission policy (what becomes a fact):

* every sensed entity: at(e, "x,y") and located_in(e, region),
* visible entities: isa/color/size/material/shape/has_state/affords,
* stacked entities relate to the world only through OnTopOf(e, support);
  their pairwise relations are left to the composition table downstream,
* free-standing entities get pairwise Near (< near_distance) and exact
  cardinal LeftOf/RightOf/Above/Below facts,
* containment is sensed on the container: Contains(c, x) and Inside(x, c),
* an open movement event yields has_state(e, moving) in the temporal graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kb import Fact, SemanticGraph, ValidationError

# fixed salience table for the attention pass
SALIENCE_MOVING = 1.0
SALIENCE_STATE_FLAG = 0.9
SALIENCE_ADJACENT = 0.8
SALIENCE_TASK = 1.0
SALIENCE_DEFAULT = 0.3
STATE_SALIENCE_FLAGS = frozenset({"hot", "wet", "powered"})

_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E", "NE": "SW", "SW": "NE", "NW": "SE", "SE": "NW"}
# heading of b as seen from a -> relation(a, b)
_HEADING_RELATION = {"E": "LeftOf", "W": "RightOf", "S": "Above", "N": "Below"}


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


@dataclass(frozen=True)
class Observation:
    tick: int
    readings: dict[str, Reading]

    def entities(self) -> list[str]:
        return sorted(self.readings)

    def digest_payload(self) -> dict[str, object]:
        payload: dict[str, object] = {"tick": self.tick, "readings": {}}
        readings: dict[str, object] = {}
        for entity in self.entities():
            r = self.readings[entity]
            readings[entity] = {
                "pos": list(r.position),
                "region": r.region,
                "occluded": r.occluded,
                "attrs": {k: r.attributes[k] for k in sorted(r.attributes)} if r.attributes else None,
                "flags": sorted(r.flags) if r.flags is not None else None,
                "contains": list(r.contains),
                "on": r.on,
            }
        payload["readings"] = readings
        return payload


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

    def events_for(self, entity: str) -> list[Event]:
        return [e for e in self.events if e.entity == entity]

    def open_events_for(self, entity: str) -> list[Event]:
        return [e for e in self.events if e.entity == entity and not e.closed]

    def starting_at(self, tick: int) -> list[Event]:
        return [e for e in self.events if e.start == tick]


@dataclass
class Location:
    ego: tuple[int, int]


@dataclass
class SpatialFeatures:
    distances: dict[tuple[str, str], float] = field(default_factory=dict)
    directions: dict[tuple[str, str], str] = field(default_factory=dict)
    locations: dict[str, Location] = field(default_factory=dict)
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


def compass_heading(dx: int, dy: int) -> str | None:
    """Sign-based 8-way heading; None for zero displacement.

    The y axis grows southward (row index), so N is -y.
    """
    if dx == 0 and dy == 0:
        return None
    sx, sy = (dx > 0) - (dx < 0), (dy > 0) - (dy < 0)
    return {
        (0, -1): "N",
        (1, -1): "NE",
        (1, 0): "E",
        (1, 1): "SE",
        (0, 1): "S",
        (-1, 1): "SW",
        (-1, 0): "W",
        (-1, -1): "NW",
    }[(sx, sy)]


def opposite_heading(heading: str) -> str:
    return _OPPOSITE[heading]


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
    """All pairwise distances/headings plus per-entity locations."""
    agent_reading = obs.readings.get(agent)
    if agent_reading is None:
        raise ValidationError(f"agent {agent!r} absent from observation")
    if agent_reading.occluded:
        raise ValidationError(f"agent {agent!r} occluded; cannot self-localize")
    ax, ay = agent_reading.position
    features = SpatialFeatures(agent=agent)
    entities = obs.entities()
    for entity in entities:
        reading = obs.readings[entity]
        x, y = reading.position
        features.locations[entity] = Location(ego=(x - ax, y - ay))
        if reading.on is not None:
            features.supports[entity] = reading.on
    for a in entities:
        for b in entities:
            if a >= b:
                continue
            pa, pb = obs.readings[a].position, obs.readings[b].position
            dist = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
            features.distances[(a, b)] = dist
            features.distances[(b, a)] = dist
            heading = compass_heading(pb[0] - pa[0], pb[1] - pa[1])
            if heading is not None:
                features.directions[(a, b)] = heading
                features.directions[(b, a)] = opposite_heading(heading)
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
    entities = sorted(
        {e.entity for e in ft.events} | set(fs.locations) | set(fc.records)
    )
    bound: list[BoundObject] = []
    for entity in entities:
        events = ft.events_for(entity)
        open_events = [e for e in events if not e.closed]
        record = fc.records.get(entity)
        location = fs.locations.get(entity)
        presence = {
            "temporal": bool(events),
            "spatial": location is not None,
            "conceptual": record is not None,
        }
        task_ref = entity in task_refs or entity == fs.agent

        sal_t = SALIENCE_DEFAULT
        if any(e.kind == "move" for e in open_events):
            sal_t = SALIENCE_MOVING
        elif open_events:
            sal_t = SALIENCE_STATE_FLAG
        sal_s = SALIENCE_DEFAULT
        if location is not None and math.hypot(*location.ego) < 2.0:
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
) -> tuple[SemanticGraph, SemanticGraph, SemanticGraph, dict[str, list[Fact]]]:
    """Turn this tick's features into the three dimension graphs.

    Also returns the facts grouped by owning entity so working-memory
    salience can follow the attention scores.
    """
    tick = obs.tick
    t_graph = SemanticGraph("temporal")
    s_graph = SemanticGraph("spatial")
    c_graph = SemanticGraph("conceptual")
    by_entity: dict[str, list[Fact]] = {e: [] for e in obs.entities()}

    def emit(graph: SemanticGraph, owner: str, subject: str, relation: str, obj) -> None:
        fact = Fact(subject, relation, obj, 1.0, tick, "perceived")
        graph.insert(fact)
        by_entity.setdefault(owner, []).append(fact)

    for entity in obs.entities():
        reading = obs.readings[entity]
        x, y = reading.position
        emit(s_graph, entity, entity, "at", f"{x},{y}")
        if reading.region is not None:
            emit(s_graph, entity, entity, "located_in", reading.region)
        for contained in reading.contains:
            emit(s_graph, entity, entity, "Contains", contained)
            emit(s_graph, contained, contained, "Inside", entity)
        record = fc.records.get(entity)
        if record is not None:
            if record.category:
                emit(c_graph, entity, entity, "isa", record.category)
            if record.color:
                emit(c_graph, entity, entity, "color", record.color)
            if record.size is not None:
                emit(c_graph, entity, entity, "size", record.size)
            if record.material:
                emit(c_graph, entity, entity, "material", record.material)
            if record.shape:
                emit(c_graph, entity, entity, "shape", record.shape)
            for flag in sorted(record.flags):
                if flag != "moving":
                    emit(c_graph, entity, entity, "has_state", flag)
            for function in record.functions:
                emit(c_graph, entity, entity, "affords", function)
        if ft.open_events_for(entity) and any(
            e.kind == "move" for e in ft.open_events_for(entity)
        ):
            emit(t_graph, entity, entity, "has_state", "moving")

    free = [
        e
        for e in obs.entities()
        if e not in fs.supports and "carried" not in obs.readings[e].visible_flags()
    ]
    for entity, support in sorted(fs.supports.items()):
        emit(s_graph, entity, entity, "OnTopOf", support)
    for a in free:
        for b in free:
            if a == b:
                continue
            dist = fs.distances.get((a, b))
            if dist is None:
                continue
            if dist < near_distance:
                emit(s_graph, a, a, "Near", b)
            heading = fs.directions.get((a, b))
            relation = _HEADING_RELATION.get(heading or "")
            if relation:
                emit(s_graph, a, a, relation, b)
    return t_graph, s_graph, c_graph, by_entity
