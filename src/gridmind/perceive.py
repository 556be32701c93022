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

Perception costs what changed. `WorldState.observe` hands back the same
Reading object while an entity's reading is unchanged, and a reading
keeps what it alone implies: its digest text, its ConceptRecord (per
lexicon object) with that record's conceptual facts, and its own spatial
facts (at, located_in, Contains and the Inside of each item it
contains). A new reading builds its facts once, at the tick it is first
perceived; a reused one restamps them with `Fact.at_tick`, because only
the tick differs. What depends on more than one reading is made fresh
every tick: has_state(moving), which depends on the window, OnTopOf and
the pairwise Near and cardinal facts. The kept state is not a field, so
eq and repr ignore it and a copy of a reading starts without it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations, permutations
from json.encoder import encode_basestring
from types import MappingProxyType

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
    What the reading implies is made on first use and kept on it (not a
    field: eq and repr ignore it, and a copy drops it): its digest text,
    its concept record per lexicon and its own spatial facts.
    """

    entity: str
    position: tuple[int, int]
    region: str | None = None
    occluded: bool = False
    attributes: dict[str, object] | None = None
    flags: frozenset[str] | None = None
    contains: tuple[str, ...] = ()
    on: str | None = None

    def __getstate__(self) -> dict[str, object]:
        """The fields alone: a copy or a pickle starts without kept state."""
        return {name: self.__dict__[name] for name in _READING_FIELDS}

    def visible_flags(self) -> frozenset[str]:
        return self.flags if self.flags is not None else _NO_FLAGS

    @cached_property
    def text(self) -> str:
        """This reading's canonical JSON in the observation digest, written
        on first use and kept."""
        x, y = self.position
        attrs = self.attributes
        flags = self.flags
        attrs_text = (
            "{" + ",".join(f"{encode_basestring(k)}:{_json(attrs[k])}" for k in sorted(attrs)) + "}"
            if attrs
            else "null"
        )
        flags_text = "[" + ",".join(map(_json, sorted(flags))) + "]" if flags is not None else "null"
        return (
            f'{{"pos":[{_json(x)},{_json(y)}],"region":{_json(self.region)},'
            f'"occluded":{_json(self.occluded)},"attrs":{attrs_text},"flags":{flags_text},'
            f'"contains":[{",".join(map(_json, self.contains))}],"on":{_json(self.on)}}}'
        )

    def concept(self, lexicon: Mapping[str, tuple[str, ...]]) -> ConceptRecord | None:
        """This reading's concept record under `lexicon`, None if occluded;
        made once per lexicon object and kept."""
        kept = self.__dict__.get("_concept")
        if kept is not None and kept[0] is lexicon:
            return kept[1]
        record = None
        if not self.occluded:
            attrs = self.attributes or {}
            category = attrs.get("category")
            if not isinstance(category, str):
                category = None
            record = ConceptRecord(
                entity=self.entity,
                category=category,
                material=attrs.get("material"),  # type: ignore[arg-type]
                shape=attrs.get("shape"),  # type: ignore[arg-type]
                color=attrs.get("color"),  # type: ignore[arg-type]
                size=attrs.get("size"),  # type: ignore[arg-type]
                flags=self.visible_flags(),
                functions=tuple(lexicon.get(category, ())) if category is not None else (),
            )
        self.__dict__["_concept"] = (lexicon, record)
        return record

    def spatial_facts(self, tick: int) -> list[Fact]:
        """at(e, "x,y"), located_in(e, region), then Contains(e, x) and
        Inside(x, e) for each x it contains, at `tick`."""
        kept = self.__dict__.get("_spatial")
        if kept is None:
            entity = self.entity
            x, y = self.position
            kept = [Fact(entity, "at", f"{x},{y}", 1.0, tick, _PERCEIVED)]
            if self.region is not None:
                kept.append(Fact(entity, "located_in", self.region, 1.0, tick, _PERCEIVED))
            for contained in self.contains:
                kept.append(Fact(entity, "Contains", contained, 1.0, tick, _PERCEIVED))
                kept.append(Fact(contained, "Inside", entity, 1.0, tick, _PERCEIVED))
        elif kept[0].tick == tick:
            return kept
        else:
            kept = [fact.at_tick(tick) for fact in kept]
        self.__dict__["_spatial"] = kept
        return kept


_READING_FIELDS = tuple(f.name for f in fields(Reading))
_NO_FLAGS: frozenset[str] = frozenset()
_NO_LEXICON: Mapping[str, tuple[str, ...]] = MappingProxyType({})
_PERCEIVED = "perceived"


def _json(value: object) -> str:
    """Canonical JSON of a scalar in a reading: the symbols, sizes, flags
    and positions readings hold are written here, anything else by
    `canonical.dumps`, so the bytes are the same either way."""
    if isinstance(value, str):
        return encode_basestring(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return canonical.dumps(value)


@dataclass(frozen=True)
class Observation:
    tick: int
    readings: dict[str, Reading]

    def entities(self) -> tuple[str, ...]:
        """The entity ids in sorted order, sorted on first use and kept."""
        return self._entities

    @cached_property
    def _entities(self) -> tuple[str, ...]:
        return tuple(sorted(self.readings))

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

    def facts(self, tick: int) -> list[Fact]:
        """isa, color, size, material, shape, has_state (but moving, which
        is the temporal pathway's) and affords, at `tick`; made on first
        use and kept (not a field), restamped for a later tick."""
        kept = self.__dict__.get("_facts")
        if kept is None:
            entity = self.entity
            kept = []
            if self.category:
                kept.append(Fact(entity, "isa", self.category, 1.0, tick, _PERCEIVED))
            if self.color:
                kept.append(Fact(entity, "color", self.color, 1.0, tick, _PERCEIVED))
            if self.size is not None:
                kept.append(Fact(entity, "size", self.size, 1.0, tick, _PERCEIVED))
            if self.material:
                kept.append(Fact(entity, "material", self.material, 1.0, tick, _PERCEIVED))
            if self.shape:
                kept.append(Fact(entity, "shape", self.shape, 1.0, tick, _PERCEIVED))
            for flag in sorted(self.flags):
                if flag != "moving":
                    kept.append(Fact(entity, "has_state", flag, 1.0, tick, _PERCEIVED))
            for function in self.functions:
                kept.append(Fact(entity, "affords", function, 1.0, tick, _PERCEIVED))
        elif not kept or kept[0].tick == tick:
            return kept
        else:
            kept = [fact.at_tick(tick) for fact in kept]
        self.__dict__["_facts"] = kept
        return kept


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
    the first off tick (an absent entity has no flags). The movement flag
    maps to event kind "move". One pass per entity compares each reading's
    flags with the previous one's, skipping a reading that is the same
    object as the previous. Events are numbered by (start, entity, kind,
    flag); only the flags "move" and "moving" share a kind.
    """
    if not window:
        raise ValidationError("observation window must be non-empty")
    for prev, cur in zip(window, window[1:]):
        if cur.tick != prev.tick + 1:
            raise ValidationError(
                f"observation window ticks not consecutive: {prev.tick} -> {cur.tick}"
            )
    raw: list[tuple[int, str, str, str, int | None]] = []
    for entity in set().union(*(obs.readings for obs in window)):
        previous: Reading | None = None
        flags_before = _NO_FLAGS
        opened: dict[str, int] = {}
        for obs in window:
            reading = obs.readings.get(entity)
            if reading is previous:
                continue
            previous = reading
            flags = _NO_FLAGS if reading is None else reading.visible_flags()
            if flags == flags_before:
                continue
            for flag in flags - flags_before:
                opened[flag] = obs.tick
            for flag in flags_before - flags:
                raw.append((opened.pop(flag), entity, _event_kind(flag), flag, obs.tick))
            flags_before = flags
        for flag, start in opened.items():
            raw.append((start, entity, _event_kind(flag), flag, None))
    raw.sort()  # (start, entity, kind, flag) is unique, so `end` is never compared
    return TemporalFeatures(
        events=[
            Event(event_id=f"ev{n}", entity=entity, kind=kind, start=start, end=end)
            for n, (start, entity, kind, _, end) in enumerate(raw, start=1)
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
    obs: Observation, lexicon: Mapping[str, tuple[str, ...]] | None = None
) -> ConceptualFeatures:
    """Copy appearance attributes; affordances come from the lexicon.

    Each reading keeps its record per lexicon object, so pass the same
    lexicon every tick (RuleData holds one per process)."""
    if lexicon is None:
        lexicon = _NO_LEXICON
    features = ConceptualFeatures()
    records = features.records
    readings = obs.readings
    for entity in obs.entities():
        record = readings[entity].concept(lexicon)
        if record is not None:
            records[entity] = record
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

    Also returns the facts grouped by owning entity (each fact's subject)
    so working-memory salience can follow the attention scores. A
    reading's own spatial facts and its record's conceptual facts are
    the ones it keeps (see the module docstring).
    """
    tick = obs.tick
    readings = obs.readings
    entities = obs.entities()
    records = fc.records
    t_facts: list[Fact] = []
    s_facts: list[Fact] = []
    c_facts: list[Fact] = []
    by_entity: dict[str, list[Fact]] = {e: [] for e in entities}
    moving = {e.entity for e in ft.events if e.kind == "move" and not e.closed}
    for entity in entities:
        reading = readings[entity]
        own = by_entity[entity]
        spatial = reading.spatial_facts(tick)
        s_facts += spatial
        if reading.contains:  # each Inside(x, e) is x's
            for fact in spatial:
                if fact.subject == entity:
                    own.append(fact)
                else:
                    by_entity.setdefault(fact.subject, []).append(fact)
        else:
            own += spatial
        record = records.get(entity)
        if record is not None:
            conceptual = record.facts(tick)
            c_facts += conceptual
            own += conceptual
        if entity in moving:
            fact = Fact(entity, "has_state", "moving", 1.0, tick, _PERCEIVED)
            t_facts.append(fact)
            own.append(fact)

    supports = fs.supports
    for entity, support in sorted(supports.items()):
        fact = Fact(entity, "OnTopOf", support, 1.0, tick, _PERCEIVED)
        s_facts.append(fact)
        by_entity.setdefault(entity, []).append(fact)
    free = [
        e for e in entities if e not in supports and "carried" not in readings[e].visible_flags()
    ]
    positions = [readings[e].position for e in free]
    for i, j in _candidate_pairs(positions, near_distance):
        a, b = free[i], free[j]
        ax, ay = positions[i]
        bx, by = positions[j]
        dx, dy = bx - ax, by - ay
        if math.hypot(dx, dy) < near_distance:
            fact = Fact(a, "Near", b, 1.0, tick, _PERCEIVED)
            s_facts.append(fact)
            by_entity[a].append(fact)
        relation = _CARDINAL.get(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
        if relation:
            fact = Fact(a, relation, b, 1.0, tick, _PERCEIVED)
            s_facts.append(fact)
            by_entity[a].append(fact)
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
