"""Semantic perception: three parallel feature pathways plus binding.

Observations are split into temporal (events), spatial (ego offsets from
the agent), and conceptual (category/material/shape/function) features.
A deterministic weighted-salience attention pass then binds the
per-entity features into one BoundObject per entity; downstream layers
receive both the bound objects and the tick's perceived facts, one list
per dimension, held in a perceived graph carried across ticks
(`PerceivedGraph`), which cognition copies into the tick's unified graph.

Emission policy (what becomes a fact; attributes go to the conceptual
list, the movement state to the temporal one, the rest is spatial):

* every sensed entity: at(e, "x,y") and located_in(e, region),
* visible entities: isa/color/size/material/shape/has_state/affords,
* stacked entities relate to the world only through OnTopOf(e, support);
  their pairwise relations are left to the composition table downstream,
* free-standing entities get pairwise Near (< near_distance) and exact
  cardinal LeftOf/RightOf/Above/Below facts, computed from the two
  readings' positions; the pairs tested are only those that can pass,
  found by `_candidate_pairs`: a shared row, a shared column, or less
  than near_distance apart on both axes,
* containment is sensed on the container: Contains(c, x) and Inside(x, c),
* an open movement event yields has_state(e, moving).

Perception costs what changed. `WorldState.observe` compares each
entity's state with its previous reading before it builds anything, and
hands back the same Reading object while nothing the reading shows has
changed, so an unchanged reading is never rebuilt. A reading keeps what
it alone implies: its digest text, its ConceptRecord (per lexicon
object) with that record's conceptual facts, and its own spatial facts
(at, located_in, Contains and the Inside of each item it contains). A
reading builds its facts once, dated at the tick it is first perceived,
and hands the same facts back, unchanged, on every later tick that
reuses it. An entity that changed only its reported position gets the
reading `Reading.moved_to` makes from its previous one: it shares that
reading's attribute dict and flag set, and takes over its ConceptRecord
with the record's facts, the digest text after the region, and its
located_in (same region), Contains and Inside facts; only `at` (and
located_in in another region) is built, dated at the tick of the move.
So a perceived fact's tick is the tick since which its entity's readings
have shown it. The fresh facts, what depends on more than one reading,
are made again, and dated at the observation's tick, every tick:
has_state(moving), which depends on the window; OnTopOf, which the
support's occlusion bears on; and the pairwise Near and cardinal facts.
The agent dates a fact at the current tick where the tick records it
(working memory, the trace row, the hazards the planner reads).

The temporal pathway carries its window across ticks (`TemporalWindow`):
the latest observation, the start tick of each flag on in it, and the
events that closed within the window. Each new observation is compared
once with the latest, walking only the readings that changed. No older
observation is kept, so a superseded reading dies with the observation
that held it.

Graph building carries its graph across ticks too (`PerceivedGraph`):
the facts the latest readings keep (at, located_in, Contains, Inside and
the conceptual facts), with the reading and concept record each entity's
came from. An entity whose reading and record are the ones carried costs
an identity check; only a changed, new or gone one swaps its kept facts,
and a moved reading swaps only what it made anew. The first tick is the
same move from an empty carry. The fresh facts are made every tick, as
above, and the tick's unified graph is a copy of the carried graph with
them inserted, so nothing reasoning adds to it reaches the carry.

Kept state is not a field: eq and repr ignore it, and a copy of a
reading or an observation starts without it. It is kept in the instance
dict by hand, under a private name: a reading's digest text (`_text`) and
the part of it after the region (`_text_tail`), and an observation's
sorted entity ids (`_entities`), as well as the concept record and the
facts above, each made on first use by the method that returns it. The
digest text of an observation is a join over its readings' kept texts,
keyed by the observation's own entity keys.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields
from itertools import combinations, permutations
from json.encoder import encode_basestring
from types import MappingProxyType

from . import cells
from .canonical import dumps
from .kb import Fact, SemanticGraph, ValidationError

# fixed salience table for the attention pass
SALIENCE_MOVING = 1.0
SALIENCE_STATE_FLAG = 0.9
SALIENCE_ADJACENT = 0.8
SALIENCE_TASK = 1.0
SALIENCE_DEFAULT = 0.3
STATE_SALIENCE_FLAGS = frozenset({"hot", "wet", "powered"})

# signs of b's offset from a (y grows southward) -> relation(a, b)
_CARDINAL = {(1, 0): "LeftOf", (-1, 0): "RightOf", (0, 1): "Above", (0, -1): "Below"}


def _direct_init(cls):
    """Give a frozen dataclass an `__init__` that writes the fields straight
    into the instance dict, in field order, as `Fact` does: the dataclass's
    own calls object.__setattr__ for each field, which costs about twice as
    much. Eq, hash, repr, `fields` and `replace` stay the dataclass's; a
    copy or a pickle carries the fields alone, so what an instance keeps on
    first use (not a field) starts afresh."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a direct init runs no __post_init__")
    names = [f.name for f in fields(cls)]
    defaults: dict[str, object] = {}
    params = []
    for f in fields(cls):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a direct init writes plain fields only")
        if f.default is MISSING:
            params.append(f.name)
        else:
            defaults[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    writes = "".join(f"\n    state[{name!r}] = {name}" for name in names)
    source = f"def __init__(self, {', '.join(params)}):\n    state = self.__dict__{writes}"
    namespace: dict[str, object] = {}
    exec(source, defaults, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # type: ignore[attr-defined]

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__
        return {name: state[name] for name in names}

    cls.__init__ = init
    cls.__getstate__ = __getstate__
    return cls


@_direct_init
@dataclass(frozen=True)
class Reading:
    """One entity's sensor reading for a tick.

    Occluded entities expose position only: attributes and flags are None.
    What the reading implies is made on first use and kept on it (not a
    field: eq and repr ignore it, and a copy drops it): its digest text,
    its concept record per lexicon and its own spatial facts, dated at the
    tick they were made and never redated. A reading that `moved_to` makes
    takes over what does not depend on the position; one that a changed
    reading supersedes dies, with what it kept, when the last observation
    that holds it does.
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
        return self.flags if self.flags is not None else _NO_FLAGS

    def moved_to(self, position: tuple[int, int], region: str | None, tick: int) -> Reading:
        """This reading with the entity reported at `position` in `region`
        from `tick` on.

        The other fields are this reading's own objects, and the new reading
        takes over what this one kept that does not depend on where the
        entity is: the concept record with its facts, the digest text after
        the region, and the spatial facts but `at`, which is made afresh at
        `tick` (as is `located_in`, when the region differs). The taken-over
        facts keep the tick they were made at."""
        moved = Reading(
            self.entity, position, region, self.occluded,
            self.attributes, self.flags, self.contains, self.on,
        )
        kept, state = self.__dict__, moved.__dict__
        for name in _POSITION_FREE:
            if name in kept:
                state[name] = kept[name]
        spatial = kept.get("_spatial")
        if spatial is not None:
            entity = self.entity
            x, y = position
            facts = [Fact(entity, "at", f"{x},{y}", 1.0, tick, _PERCEIVED)]
            if region is not None:
                facts.append(
                    spatial[1]
                    if region == self.region
                    else Fact(entity, "located_in", region, 1.0, tick, _PERCEIVED)
                )
            # past at and, if there is one, located_in: Contains and Inside
            facts += spatial[1 if self.region is None else 2 :]
            state["_spatial"] = facts
        return moved

    def text(self) -> str:
        """This reading's canonical JSON in the observation digest, written
        on first use and kept, as is the part after the region."""
        state = self.__dict__
        text = state.get("_text")
        if text is None:
            tail = state.get("_text_tail")
            if tail is None:
                tail = state["_text_tail"] = self._tail_text()
            x, y = self.position
            text = f'{{"pos":[{dumps(x)},{dumps(y)}],"region":{dumps(self.region)}' + tail
            state["_text"] = text
        return text

    def _tail_text(self) -> str:
        """The digest text after the region: what does not depend on where
        the entity is."""
        attrs = self.attributes
        flags = self.flags
        record = {
            "occluded": self.occluded,
            "attrs": {k: attrs[k] for k in sorted(attrs)} if attrs else None,
            "flags": sorted(flags) if flags is not None else None,
            "contains": self.contains,
            "on": self.on,
        }
        return "," + dumps(record)[1:]

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
        Inside(x, e) for each x it contains; made on first use, at `tick`,
        and kept, so a later tick gets the same facts at their first tick."""
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
            self.__dict__["_spatial"] = kept
        return kept


# what a Reading makes on first use that a moved reading takes over
_POSITION_FREE = ("_concept", "_text_tail")
_NO_FLAGS: frozenset[str] = frozenset()
_NO_FACTS: tuple[Fact, ...] = ()
# a PerceivedGraph entry for an entity it has not shown
_UNSHOWN = (None, None, _NO_FACTS, _NO_FACTS)
_NO_LEXICON: Mapping[str, tuple[str, ...]] = MappingProxyType({})
_PERCEIVED = "perceived"


@_direct_init
@dataclass(frozen=True)
class Observation:
    tick: int
    readings: dict[str, Reading]

    def entities(self) -> tuple[str, ...]:
        """The entity ids in sorted order, sorted on first use and kept."""
        entities = self.__dict__.get("_entities")
        if entities is None:
            entities = self.__dict__["_entities"] = tuple(sorted(self.readings))
        return entities

    def digest_text(self) -> str:
        """Canonical JSON of the tick and every reading by entity id: the
        text the trace's observation digest hashes."""
        readings = self.readings
        texts = [f"{encode_basestring(e)}:{readings[e].text()}" for e in self.entities()]
        return f'{{"tick":{self.tick},"readings":{{{",".join(texts)}}}}}'


@_direct_init
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

    def by_entity(self) -> dict[str, list[Event]]:
        """The events grouped by entity, each group in event order."""
        index: dict[str, list[Event]] = {}
        for event in self.events:
            index.setdefault(event.entity, []).append(event)
        return index

    def starting_at(self, tick: int) -> list[Event]:
        return [e for e in self.events if e.start == tick]


@dataclass
class SpatialFeatures:
    """Each entity's offset from the agent, which attention scores."""

    locations: dict[str, tuple[int, int]] = field(default_factory=dict)  # ego offsets
    agent: str = ""


@_direct_init
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
        is the temporal pathway's) and affords; made on first use, at
        `tick`, and kept (not a field), so a later tick gets the same facts
        at their first tick."""
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
            self.__dict__["_facts"] = kept
        return kept


@_direct_init
@dataclass(frozen=True)
class BoundObject:
    entity: str
    score: float
    below_threshold: bool


class TemporalWindow:
    """What the temporal pathway carries from tick to tick, for events over
    the last `size` ticks: the latest observation (`last`), the start tick
    of each (entity, flag) on in it (`opened`), and the events that closed,
    as (start, entity, kind, flag, end) in the order they closed
    (`closed`). `extract_temporal` moves it on by one observation."""

    __slots__ = ("size", "last", "opened", "closed")

    def __init__(self, size: int) -> None:
        self.size = size
        self.last: Observation | None = None
        self.opened: dict[tuple[str, str], int] = {}
        self.closed: deque[tuple[int, str, str, str, int]] = deque()


class PerceivedGraph:
    """What graph building carries from tick to tick, for the latest
    observation: the facts its readings and their concept records keep,
    in one graph (`graph`); per entity, the reading and the record those
    facts came from, with the reading's spatial and the record's
    conceptual facts (`shown`); and the tick's fresh facts (`fresh`).
    `build_dimension_graphs` moves it on by one observation; a new carry
    is empty, and its first move builds everything."""

    __slots__ = ("graph", "shown", "fresh")

    def __init__(self) -> None:
        self.graph = SemanticGraph()
        self.shown: dict[str, tuple[Reading, ConceptRecord | None, Sequence[Fact], Sequence[Fact]]] = {}
        self.fresh: list[Fact] = []


def extract_temporal(window: TemporalWindow, obs: Observation) -> TemporalFeatures:
    """Edge-triggered event detection: move `window` on to `obs`, the tick
    after its latest observation, and return the events of its last
    `window.size` ticks.

    A rising edge opens an event and a falling edge closes it at the first
    off tick (an absent entity has no flags); the first observation is
    compared with an empty one. Only the readings of `obs` that are not the
    same objects as in the latest observation are compared. An event that
    started before the window is reported from the window start, and one
    that closed at or before it is dropped. The movement flag maps to
    event kind "move". Events are numbered by (start, entity, kind, flag);
    only the flags "move" and "moving" share a kind.
    """
    last, tick = window.last, obs.tick
    opened, closed = window.opened, window.closed
    if last is not None and tick != last.tick + 1:
        raise ValidationError(f"observation window ticks not consecutive: {last.tick} -> {tick}")
    before, after = ({} if last is None else last.readings), obs.readings
    for entity in before.keys() | after.keys():
        old, new = before.get(entity), after.get(entity)
        if old is new:
            continue
        flags_before = _NO_FLAGS if old is None else old.visible_flags()
        flags = _NO_FLAGS if new is None else new.visible_flags()
        if flags != flags_before:
            for flag in flags - flags_before:
                opened[entity, flag] = tick
            for flag in flags_before - flags:
                closed.append((opened.pop((entity, flag)), entity, _event_kind(flag), flag, tick))
    window.last = obs
    first = tick - window.size + 1
    while closed and closed[0][4] <= first:  # off at every tick of the window
        closed.popleft()
    raw = [(max(start, first), entity, kind, flag, end) for start, entity, kind, flag, end in closed]
    for (entity, flag), start in opened.items():
        raw.append((max(start, first), entity, _event_kind(flag), flag, None))
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
    """Per-entity offsets from the agent (the agent's own is (0, 0))."""
    agent_reading = obs.readings.get(agent)
    if agent_reading is None:
        raise ValidationError(f"agent {agent!r} absent from observation")
    if agent_reading.occluded:
        raise ValidationError(f"agent {agent!r} occluded; cannot self-localize")
    ax, ay = agent_reading.position
    features = SpatialFeatures(agent=agent)
    for entity in obs.entities():
        x, y = obs.readings[entity].position
        features.locations[entity] = (x - ax, y - ay)
    return features


def extract_conceptual(
    obs: Observation, lexicon: Mapping[str, tuple[str, ...]] | None = None
) -> dict[str, ConceptRecord]:
    """Each visible entity's ConceptRecord: attributes copied, affordances from the lexicon.

    Each reading keeps its record per lexicon object, so pass the same
    lexicon every tick (RuleData holds one per process)."""
    if lexicon is None:
        lexicon = _NO_LEXICON
    records = {}
    readings = obs.readings
    for entity in obs.entities():
        record = readings[entity].concept(lexicon)
        if record is not None:
            records[entity] = record
    return records


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
    records: Mapping[str, ConceptRecord],
    weights: dict[str, float],
    task_refs: frozenset[str] = frozenset(),
    threshold: float = 0.25,
) -> list[BoundObject]:
    """Bind per-entity features (`records` from `extract_conceptual`) into one object each.

    Entities scoring below the threshold are still emitted, only flagged;
    filtering is the caller's concern. Output order: score descending,
    entity id ascending.
    """
    validate_weights(weights)
    weight_t, weight_s, weight_c = weights["temporal"], weights["spatial"], weights["conceptual"]
    by_entity, locations, agent = ft.by_entity(), fs.locations, fs.agent
    bound: list[BoundObject] = []
    # score = the sum, over the dimensions the entity is present in, of
    # weight * salience, added temporal, spatial, conceptual from 0.0
    for entity in sorted({*by_entity, *locations, *records}):
        task_ref = entity in task_refs or entity == agent
        score = 0.0
        events = by_entity.get(entity)
        if events:
            salience = SALIENCE_DEFAULT
            for event in events:
                if event.end is None:
                    if event.kind == "move":
                        salience = SALIENCE_MOVING
                        break
                    salience = SALIENCE_STATE_FLAG
            if task_ref:
                salience = max(salience, SALIENCE_TASK)
            score += weight_t * salience
        ego = locations.get(entity)
        if ego is not None:
            salience = SALIENCE_ADJACENT if math.hypot(*ego) < 2.0 else SALIENCE_DEFAULT
            if task_ref:
                salience = max(salience, SALIENCE_TASK)
            score += weight_s * salience
        record = records.get(entity)
        if record is not None:
            salience = SALIENCE_STATE_FLAG if record.flags & STATE_SALIENCE_FLAGS else SALIENCE_DEFAULT
            if task_ref:
                salience = max(salience, SALIENCE_TASK)
            score += weight_c * salience
        bound.append(BoundObject(entity, score, below_threshold=score < threshold))
    bound.sort(key=lambda b: -b.score)  # stable: ties stay in entity order
    return bound


def build_dimension_graphs(
    carry: PerceivedGraph,
    obs: Observation,
    ft: TemporalFeatures,
    records: Mapping[str, ConceptRecord],
    near_distance: float = 2.0,
) -> tuple[list[Fact], list[Fact], list[Fact], dict[str, list[Fact]]]:
    """Move `carry` on to `obs` and return the tick's temporal, spatial and
    conceptual facts, one list each.

    Also returns the facts grouped by owning entity (each fact's subject)
    so working-memory salience can follow the attention scores. A
    reading's own spatial facts and its record's conceptual facts are
    the ones it keeps, at the tick they were made (see the module
    docstring); the others, the fresh facts, are made at the observation's
    tick. One walk over the readings makes all but the pairwise facts of
    the free-standing, and swaps in the carried graph the kept facts of
    each entity whose reading or record is not the one it carries.
    """
    tick = obs.tick
    readings = obs.readings
    entities = obs.entities()
    graph, shown = carry.graph, carry.shown
    t_facts: list[Fact] = []
    s_facts: list[Fact] = []
    c_facts: list[Fact] = []
    fresh: list[Fact] = []
    by_entity: dict[str, list[Fact]] = {e: [] for e in entities}
    moving = {e.entity for e in ft.events if e.kind == "move" and not e.closed}
    free: list[str] = []
    for entity in entities:
        reading = readings[entity]
        record = records.get(entity)
        own = by_entity[entity]
        was = shown.get(entity)
        if was is not None and was[0] is reading and was[1] is record:
            spatial, conceptual = was[2], was[3]
        else:
            spatial = reading.spatial_facts(tick)
            conceptual = _NO_FACTS if record is None else record.facts(tick)
            last_reading, last_record, last_spatial, last_conceptual = was or _UNSHOWN
            if last_reading is not reading:
                graph.replace(last_spatial, spatial)
            if last_record is not record:
                graph.replace(last_conceptual, conceptual)
            shown[entity] = (reading, record, spatial, conceptual)
        s_facts += spatial
        if reading.contains:  # each Inside(x, e) is x's
            for fact in spatial:
                if fact.subject == entity:
                    own.append(fact)
                else:
                    by_entity.setdefault(fact.subject, []).append(fact)
        else:
            own += spatial
        if conceptual:
            c_facts += conceptual
            own += conceptual
        if entity in moving:
            fact = Fact(entity, "has_state", "moving", 1.0, tick, _PERCEIVED)
            t_facts.append(fact)
            fresh.append(fact)
            own.append(fact)
        if reading.on is not None:
            fact = Fact(entity, "OnTopOf", reading.on, 1.0, tick, _PERCEIVED)
            s_facts.append(fact)
            fresh.append(fact)
            own.append(fact)
        elif "carried" not in reading.visible_flags():
            free.append(entity)
    if len(shown) > len(entities):  # an entity left the observation
        for entity in [e for e in shown if e not in readings]:
            _, _, last_spatial, last_conceptual = shown.pop(entity)
            graph.replace(last_spatial, _NO_FACTS)
            graph.replace(last_conceptual, _NO_FACTS)
    positions = [readings[e].position for e in free]
    for i, j in _candidate_pairs(positions, near_distance):
        a, b = free[i], free[j]
        ax, ay = positions[i]
        bx, by = positions[j]
        dx, dy = bx - ax, by - ay
        if math.hypot(dx, dy) < near_distance:
            fact = Fact(a, "Near", b, 1.0, tick, _PERCEIVED)
            s_facts.append(fact)
            fresh.append(fact)
            by_entity[a].append(fact)
        relation = _CARDINAL.get(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
        if relation:
            fact = Fact(a, relation, b, 1.0, tick, _PERCEIVED)
            s_facts.append(fact)
            fresh.append(fact)
            by_entity[a].append(fact)
    carry.fresh = fresh
    return t_facts, s_facts, c_facts, by_entity


def _candidate_pairs(positions: list[tuple[int, int]], near_distance: float):
    """Every ordered pair (i, j), i != j, of positions that may be Near
    (closer than `near_distance`) or exactly cardinal (one row or one
    column), in sorted order: `a` in list order, then `b` in list order.

    A position's candidates share its row or its column, or lie less than
    `near_distance` from it on both axes. Rows are bucketed; columns and
    the near ones are found in one sweep over the positions in column
    order, which stops at the first position of another column that is
    `near_distance` or more to the right. With no more positions than
    the `cells.NEIGHBOURHOOD` cells of a point, every pair is a candidate.
    """
    n = len(positions)
    if n <= cells.NEIGHBOURHOOD:
        return permutations(range(n), 2)
    rows: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(positions):
        rows.setdefault(y, []).append(i)
    pairs = {pair for line in rows.values() for pair in combinations(line, 2)}
    order = sorted(range(n), key=positions.__getitem__)
    for k, i in enumerate(order):
        x, y = positions[i]
        for j in order[k + 1 :]:
            bx, by = positions[j]
            if bx != x and bx - x >= near_distance:
                break
            if bx == x or abs(by - y) < near_distance:
                pairs.add((i, j))
    return sorted(pairs | {(j, i) for i, j in pairs})
