"""Deterministic tick-based household gridworld.

Entities occupy grid cells, carry attributes and state flags, and may rest
on one another (each stacked entity has exactly one support below it;
surface categories such as tables may hold several independent stacks,
any other entity at most one entity) or lie inside one another
(containers may nest to any depth, and contents follow their container
when it moves). Actions have physics-lite effects, on what is
`within_reach` of the agent; picking up a contained entity, or placing
onto one, fails with reason `contained`, and picking up the agent, or
placing onto it, fails with reason `no_such_entity`. Scripted exogenous
events fire after the action each tick. A step returns the action's
result, whose delta holds the tick's newly set flags and new positions as
facts. Observations cover every entity, synthesized with stack/containment
occlusion and optional seeded position noise.

Scenario file grammar (line oriented, `#` comments)::

    version 1
    grid <width> <height>
    region <id> <x0> <y0> <x1> <y1>
    agent <id> <x> <y> [key=value ...]
    entity <id> <x> <y> [key=value ...]
    fact <subject> <relation> <object> [confidence]
    at <tick> set <entity> <flag>
    at <tick> clear <entity> <flag>
    at <tick> teleport <entity> <x> <y>
    at <tick> velocity <entity> <dx> <dy>
    task <kind> [key=value ...]
    config <key> <value>

Entity keys: category, color, size, material, shape, flags (comma list),
contains (comma list), on (supporting entity). An entity rides on at most
one anchor: the agent while carried, else its support, else its
container. It sits where the free entity at the end of that chain sits,
so the cell declared for a stacked or contained entity is ignored. A
scenario is refused if supports and containers form a cycle, if an
entity is in two containers, if an entity both rests on another and is
contained, if the agent rests on or is contained by another entity, if
an entity rests on the agent (at that entity's line), if a second entity
rests on one that is not a surface (at the line of the later one), or if
a region id is declared twice.

Entity ids, region ids, attribute values, flags and the terms of a fact
line become the terms of facts, so each must be a valid fact literal (no
`|`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from . import canonical
from .kb import Fact, parse_literal
from .perceive import Observation, Reading

GRID_DIRECTIONS = {
    "N": (0, -1),
    "NE": (1, -1),
    "E": (1, 0),
    "SE": (1, 1),
    "S": (0, 1),
    "SW": (-1, 1),
    "W": (-1, 0),
    "NW": (-1, -1),
}

SURFACE_CATEGORIES = frozenset({"table", "counter", "shelf", "box", "bed", "floor"})

ENTITY_ATTR_KEYS = frozenset({"category", "color", "size", "material", "shape"})
_ENTITY_LINE_KEYS = ENTITY_ATTR_KEYS | {"flags", "contains", "on"}

# name -> argument arity (Mop takes a cell as two integers)
ACTION_CATALOG: dict[str, int] = {
    "Move": 1,
    "PickUp": 1,
    "PlaceOn": 2,
    "CutPower": 1,
    "Mop": 2,
    "FixLeak": 1,
    "Wait": 0,
}

# actions that clear one flag of an entity within reach, failing with
# reason not_<flag> if it is not set
_FLAG_CLEARING = {"CutPower": "powered", "FixLeak": "leaking"}


class ScenarioError(canonical.InputError):
    pass


def within_reach(distance: float) -> bool:
    """Whether the agent can act on a cell `distance` away: its own cell or
    one of the four that share a side with it (a diagonal is too far)."""
    return distance <= 1.0 + 1e-9


@dataclass(frozen=True)
class Action:
    name: str
    args: tuple[str, ...] = ()

    def to_record(self) -> dict[str, object]:
        return {"name": self.name, "args": list(self.args)}


@dataclass
class ActionResult:
    status: str  # ok | failed
    reason: str | None = None
    delta: list[Fact] = field(default_factory=list)
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_record(self) -> dict[str, object]:
        return {
            "status": self.status,
            "reason": self.reason,
            "delta": [f.to_array() for f in self.delta],
            "flags": list(self.flags),
        }


@dataclass
class Region:
    region_id: str
    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, pos: tuple[int, int]) -> bool:
        return self.x0 <= pos[0] <= self.x1 and self.y0 <= pos[1] <= self.y1


@dataclass
class Entity:
    entity_id: str
    position: tuple[int, int]
    attributes: dict[str, object] = field(default_factory=dict)
    flags: set[str] = field(default_factory=set)
    contains: tuple[str, ...] = ()
    on: str | None = None
    velocity: tuple[int, int] = (0, 0)

    def is_surface(self) -> bool:
        return self.attributes.get("category") in SURFACE_CATEGORIES


@dataclass
class ExogenousEvent:
    tick: int
    kind: str  # set | clear | teleport | velocity
    entity: str
    args: tuple[int | str, ...] = ()


@dataclass
class TaskSpec:
    kind: str
    params: dict[str, str] = field(default_factory=dict)


@dataclass
class Scenario:
    width: int
    height: int
    regions: list[Region]
    entities: dict[str, Entity]
    agent: str
    events: list[ExogenousEvent]
    tasks: list[TaskSpec]
    facts: list[Fact]
    config_overrides: dict[str, str]
    path: str | None = None


def parse_scenario(text: str, path: str | None = None) -> Scenario:
    width = height = None
    regions: list[Region] = []
    entities: dict[str, Entity] = {}
    agent: str | None = None
    events: list[ExogenousEvent] = []
    tasks: list[TaskSpec] = []
    facts: list[Fact] = []
    overrides: dict[str, str] = {}
    line_of: dict[str, int] = {}  # entity id -> the line that declares it

    def err(message: str, line_no: int) -> ScenarioError:
        return ScenarioError(message, line_no, path)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "version":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise err("expected 'version <n>'", line_no)
        elif head == "grid":
            if len(parts) != 3:
                raise err("expected 'grid <width> <height>'", line_no)
            width, height = _int(parts[1], line_no, path), _int(parts[2], line_no, path)
            if width < 1 or height < 1:
                raise err("grid dimensions must be positive", line_no)
        elif head == "region":
            if len(parts) != 6:
                raise err("expected 'region <id> <x0> <y0> <x1> <y1>'", line_no)
            coords = [_int(p, line_no, path) for p in parts[2:]]
            if coords[0] > coords[2] or coords[1] > coords[3]:
                raise err("region corners out of order", line_no)
            region_id = _symbol(parts[1], line_no, path)
            if any(r.region_id == region_id for r in regions):
                raise err(f"duplicate region id {region_id!r}", line_no)
            regions.append(Region(region_id, *coords))
        elif head in ("agent", "entity"):
            if len(parts) < 4:
                raise err(f"expected '{head} <id> <x> <y> [key=value ...]'", line_no)
            entity_id = _symbol(parts[1], line_no, path)
            if entity_id in entities:
                raise err(f"duplicate entity id {entity_id!r}", line_no)
            x, y = _int(parts[2], line_no, path), _int(parts[3], line_no, path)
            spec = Entity(entity_id=entity_id, position=(x, y))
            for pair in parts[4:]:
                key, eq, value = pair.partition("=")
                if not eq:
                    raise err(f"expected key=value, got {pair!r}", line_no)
                if key not in _ENTITY_LINE_KEYS:
                    raise err(f"unknown attribute {key!r}", line_no)
                if key == "flags":
                    spec.flags = {_symbol(f, line_no, path) for f in value.split(",") if f}
                elif key == "contains":
                    spec.contains = tuple(v for v in value.split(",") if v)
                elif key == "on":
                    spec.on = value
                elif key == "size":
                    spec.attributes["size"] = _int(value, line_no, path)
                else:
                    # an empty value is kept but never perceived as a fact
                    spec.attributes[key] = _symbol(value, line_no, path) if value else value
            if head == "agent":
                if agent is not None:
                    raise err("scenario may declare only one agent", line_no)
                agent = entity_id
                spec.attributes.setdefault("category", "agent")
            entities[entity_id] = spec
            line_of[entity_id] = line_no
        elif head == "fact":
            if len(parts) not in (4, 5):
                raise err("expected 'fact <subject> <relation> <object> [conf]'", line_no)
            try:
                confidence = float(parts[4]) if len(parts) == 5 else 1.0
                subject, relation = canonical.fmt_literal(parts[1]), canonical.fmt_literal(parts[2])
                fact = Fact(subject, relation, parse_literal(parts[3]), confidence, 0, "asserted")
                fact.validate()
            except ValueError as exc:
                raise err(str(exc), line_no) from exc
            facts.append(fact)
        elif head == "at":
            if len(parts) < 4:
                raise err("expected 'at <tick> <event> <entity> ...'", line_no)
            tick = _int(parts[1], line_no, path)
            if tick < 0:
                raise err("event tick must be >= 0", line_no)
            kind, entity_id = parts[2], parts[3]
            rest = parts[4:]
            if kind in ("set", "clear"):
                if len(rest) != 1:
                    raise err(f"expected 'at <tick> {kind} <entity> <flag>'", line_no)
                flag = _symbol(rest[0], line_no, path)
                events.append(ExogenousEvent(tick, kind, entity_id, (flag,)))
            elif kind in ("teleport", "velocity"):
                if len(rest) != 2:
                    operands = "<x> <y>" if kind == "teleport" else "<dx> <dy>"
                    raise err(f"expected 'at <tick> {kind} <entity> {operands}'", line_no)
                events.append(
                    ExogenousEvent(
                        tick, kind, entity_id,
                        (_int(rest[0], line_no, path), _int(rest[1], line_no, path)),
                    )
                )
            else:
                raise err(f"unknown scripted event {kind!r}", line_no)
        elif head == "task":
            if len(parts) < 2:
                raise err("expected 'task <kind> [key=value ...]'", line_no)
            params = {}
            for pair in parts[2:]:
                key, eq, value = pair.partition("=")
                if not eq:
                    raise err(f"expected key=value, got {pair!r}", line_no)
                params[key] = value
            tasks.append(TaskSpec(kind=parts[1], params=params))
        elif head == "config":
            if len(parts) != 3:
                raise err("expected 'config <key> <value>'", line_no)
            overrides[parts[1]] = parts[2]
        else:
            raise err(f"unknown directive {head!r}", line_no)

    if width is None or height is None:
        raise ScenarioError("scenario must declare a grid", path=path)
    if agent is None:
        raise ScenarioError("scenario must declare an agent", path=path)
    holder: dict[str, str] = {}  # contained entity -> its container
    for spec in entities.values():
        x, y = spec.position
        if not (0 <= x < width and 0 <= y < height):
            raise ScenarioError(
                f"entity {spec.entity_id!r} at ({x}, {y}) outside {width}x{height} grid",
                path=path,
            )
        if spec.on is not None and spec.on not in entities:
            raise ScenarioError(
                f"entity {spec.entity_id!r} rests on unknown entity {spec.on!r}", path=path
            )
        for contained in spec.contains:
            if contained not in entities:
                raise ScenarioError(
                    f"entity {spec.entity_id!r} contains unknown entity {contained!r}",
                    path=path,
                )
            if contained in holder:
                raise ScenarioError(
                    f"entity {contained!r} is contained by both {holder[contained]!r} "
                    f"and {spec.entity_id!r}",
                    path=path,
                )
            holder[contained] = spec.entity_id
    anchors: dict[str, str] = {}  # entity -> the one entity it rides on
    rider: dict[str, str] = {}  # non-surface support -> the entity resting on it
    for entity_id, spec in entities.items():
        if spec.on == agent:
            raise err(
                f"entity {entity_id!r} rests on the agent {agent!r}; the agent only carries",
                line_of[entity_id],
            )
        if spec.on is not None and not entities[spec.on].is_surface():
            if spec.on in rider:
                raise err(
                    f"entity {entity_id!r} rests on {spec.on!r}, which already holds "
                    f"{rider[spec.on]!r}; only a surface holds more than one entity",
                    line_of[entity_id],
                )
            rider[spec.on] = entity_id
        if spec.on is not None and entity_id in holder:
            raise ScenarioError(
                f"entity {entity_id!r} both rests on {spec.on!r} and is contained by "
                f"{holder[entity_id]!r}",
                path=path,
            )
        anchor = spec.on or holder.get(entity_id)
        if anchor is None:
            continue
        if entity_id == agent:
            raise ScenarioError(
                f"agent {agent!r} rides on {anchor!r}; the agent must stand free", path=path
            )
        anchors[entity_id] = anchor
    ends: set[str] = set()  # entities whose anchor chain is known to end
    for entity_id in anchors:
        walked: set[str] = set()
        cursor = entity_id
        while cursor in anchors and cursor not in ends:
            if cursor in walked:
                raise ScenarioError(
                    f"support or containment cycle through entity {cursor!r}", path=path
                )
            walked.add(cursor)
            cursor = anchors[cursor]
        ends |= walked
    for event in events:
        if event.entity not in entities:
            raise ScenarioError(
                f"scripted event at tick {event.tick} references unknown entity "
                f"{event.entity!r}",
                path=path,
            )
        if event.kind == "teleport":
            x, y = int(event.args[0]), int(event.args[1])
            if not (0 <= x < width and 0 <= y < height):
                raise ScenarioError(
                    f"teleport target ({x}, {y}) outside grid", path=path
                )
    return Scenario(
        width=width,
        height=height,
        regions=regions,
        entities=entities,
        agent=agent,
        events=events,
        tasks=tasks,
        facts=facts,
        config_overrides=overrides,
        path=path,
    )


def load_scenario(path: str) -> Scenario:
    return parse_scenario(canonical.read_text(path, ScenarioError, "scenario"), path)


def _symbol(token: str, line_no: int, path: str | None) -> str:
    try:
        return canonical.fmt_literal(token)
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no, path) from None


def _int(token: str, line_no: int, path: str | None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"expected integer, got {token!r}", line_no, path) from None


class WorldState:
    """Mutable simulator state; one instance per run, stepped in place."""

    def __init__(self, scenario: Scenario, seed: int = 0, noise: bool = False) -> None:
        self.width = scenario.width
        self.height = scenario.height
        self.regions = list(scenario.regions)
        self.agent = scenario.agent
        self.tick = 0
        self.noise = noise
        self.rng = random.Random(seed)
        self.carrying: str | None = None
        # built in id order and never given a new key, so iterating it
        # visits the entities in id order
        self.entities: dict[str, Entity] = {}
        for entity_id in sorted(scenario.entities):
            spec = scenario.entities[entity_id]
            self.entities[entity_id] = replace(
                spec, attributes=dict(spec.attributes), flags=set(spec.flags)
            )
        # contained entity -> its container; containment never changes
        self._holder = {c: e for e, st in self.entities.items() for c in st.contains}
        self._readings: dict[str, Reading] = {}  # the last observation's
        self._schedule: dict[int, list[ExogenousEvent]] = {}
        for event in scenario.events:
            self._schedule.setdefault(event.tick, []).append(event)
        # tick-0 events are initial conditions, applied before the first step
        for event in self._schedule.get(0, []):
            self._apply_event(event)
        self._settle()

    # -- queries ------------------------------------------------------------

    def region_of(self, pos: tuple[int, int]) -> str | None:
        for region in self.regions:
            if region.contains(pos):
                return region.region_id
        return None

    def distance(self, a: str, b: str) -> float:
        pa, pb = self.entities[a].position, self.entities[b].position
        return math.hypot(pb[0] - pa[0], pb[1] - pa[1])

    def entities_in_region(self, region_id: str) -> list[str]:
        return sorted(
            e for e, st in self.entities.items() if self.region_of(st.position) == region_id
        )

    def supported_by(self, entity_id: str) -> list[str]:
        """Entities resting directly on `entity_id` (sorted)."""
        return sorted(e for e, st in self.entities.items() if st.on == entity_id)

    def _stack_from(self, base: str) -> list[str]:
        """The chain from `base` upward to the top of its stack."""
        chain = [base]
        while above := self.supported_by(chain[-1]):
            chain.append(above[0])
        return chain

    def stack_top(self, entity_id: str) -> str:
        """The top of the stack `entity_id` is in, from it upward."""
        return self._stack_from(entity_id)[-1]

    def stacks_on(self, surface: str) -> list[list[str]]:
        """All chains rooted at a surface, each bottom-to-top."""
        return [self._stack_from(base) for base in self.supported_by(surface)]

    def _anchor(self, entity_id: str) -> str | None:
        """The one entity `entity_id` rides on: the agent while it is
        carried, else its support, else its container; None if it is free."""
        if entity_id == self.carrying:
            return self.agent
        return self.entities[entity_id].on or self._holder.get(entity_id)

    def _rides_on(self, entity_id: str, anchor: str) -> bool:
        """Whether `anchor` is on the anchor chain of `entity_id`."""
        cursor = self._anchor(entity_id)
        while cursor is not None and cursor != anchor:
            cursor = self._anchor(cursor)
        return cursor is not None

    def _settle(self) -> None:
        """Move every entity to the cell of the free entity at the end of
        its anchor chain. Parsing and PlaceOn keep every chain finite."""
        for state in self.entities.values():
            root = state.entity_id
            while (anchor := self._anchor(root)) is not None:
                root = anchor
            state.position = self.entities[root].position

    # -- stepping -----------------------------------------------------------

    def _apply_event(self, event: ExogenousEvent) -> None:
        state = self.entities[event.entity]
        if event.kind == "set":
            state.flags.add(str(event.args[0]))
        elif event.kind == "clear":
            state.flags.discard(str(event.args[0]))
        elif event.kind == "teleport":
            state.position = (int(event.args[0]), int(event.args[1]))
        elif event.kind == "velocity":
            state.velocity = (int(event.args[0]), int(event.args[1]))

    def step(self, action: Action) -> ActionResult:
        """Advance one tick: action, then motion, then scripted events, then
        every carried, stacked or contained entity settles onto its anchor.

        The result's delta holds, per entity in id order, a has_state fact
        for each newly set flag (sorted), then an at fact if it moved.
        """
        self.tick += 1
        prev_positions = {e: st.position for e, st in self.entities.items()}
        prev_flags = {e: set(st.flags) for e, st in self.entities.items()}
        result = self._apply_action(action)

        for state in self.entities.values():
            if state.velocity != (0, 0):
                x = min(max(state.position[0] + state.velocity[0], 0), self.width - 1)
                y = min(max(state.position[1] + state.velocity[1], 0), self.height - 1)
                state.position = (x, y)
        for event in self._schedule.get(self.tick, []):
            self._apply_event(event)
        self._settle()

        for entity_id, state in self.entities.items():
            moved = state.position != prev_positions[entity_id]
            if moved:
                state.flags.add("moving")
            else:
                state.flags.discard("moving")
            for flag in sorted(state.flags - prev_flags[entity_id]):
                result.delta.append(
                    Fact(entity_id, "has_state", flag, 1.0, self.tick, "perceived")
                )
            if moved:
                x, y = state.position
                result.delta.append(Fact(entity_id, "at", f"{x},{y}", 1.0, self.tick, "perceived"))
        return result

    def _apply_action(self, action: Action) -> ActionResult:
        name = action.name
        if name not in ACTION_CATALOG:
            return ActionResult("failed", reason=f"unknown_action:{name}")
        if len(action.args) != ACTION_CATALOG[name]:
            return ActionResult("failed", reason=f"bad_arity:{name}")
        agent = self.entities[self.agent]

        if name == "Wait":
            return ActionResult("ok")

        if name == "Move":
            direction = action.args[0]
            if direction not in GRID_DIRECTIONS:
                return ActionResult("failed", reason=f"unknown_direction:{direction}")
            dx, dy = GRID_DIRECTIONS[direction]
            x, y = agent.position[0] + dx, agent.position[1] + dy
            if not (0 <= x < self.width and 0 <= y < self.height):
                return ActionResult("failed", reason="out_of_bounds")
            agent.position = (x, y)
            return ActionResult("ok")

        if name == "PickUp":
            target = action.args[0]
            if target not in self.entities or target == self.agent:
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if self.carrying is not None:
                return ActionResult("failed", reason="already_carrying")
            if not within_reach(self.distance(self.agent, target)):
                return ActionResult("failed", reason="out_of_range")
            if self.supported_by(target):
                return ActionResult("failed", reason="stacked_under")
            if target in self._holder:
                return ActionResult("failed", reason="contained")
            state = self.entities[target]
            state.on = None
            state.flags.add("carried")
            self.carrying = target
            return ActionResult("ok")

        if name == "PlaceOn":
            moved, target = action.args
            if self.carrying != moved:
                return ActionResult("failed", reason="not_carrying")
            if target not in self.entities or target in (moved, self.agent):
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if not within_reach(self.distance(self.agent, target)):
                return ActionResult("failed", reason="out_of_range")
            target_state = self.entities[target]
            support_id = target if target_state.is_surface() else self.stack_top(target)
            # a support inside the moved entity, or riding on what it holds,
            # would close an anchor cycle
            if target in self._holder or self._rides_on(support_id, moved):
                return ActionResult("failed", reason="contained")
            support = self.entities[support_id]
            state = self.entities[moved]
            state.on = support_id
            state.flags.discard("carried")
            self.carrying = None
            flags: tuple[str, ...] = ()
            if (
                not support.is_surface()
                and "fragile" in support.flags
                and "fragile" not in state.flags
            ):
                support.flags.add("broken")
                flags = ("instability",)
            return ActionResult("ok", flags=flags)

        if name in _FLAG_CLEARING:
            target, flag = action.args[0], _FLAG_CLEARING[name]
            if target not in self.entities:
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if not within_reach(self.distance(self.agent, target)):
                return ActionResult("failed", reason="out_of_range")
            if flag not in self.entities[target].flags:
                return ActionResult("failed", reason=f"not_{flag}")
            self.entities[target].flags.discard(flag)
            return ActionResult("ok")

        # Mop
        try:
            x, y = int(action.args[0]), int(action.args[1])
        except ValueError:
            return ActionResult("failed", reason="bad_cell")
        if not (0 <= x < self.width and 0 <= y < self.height):
            return ActionResult("failed", reason="out_of_bounds")
        ax, ay = agent.position
        if not within_reach(math.hypot(x - ax, y - ay)):
            return ActionResult("failed", reason="out_of_range")
        for state in self.entities.values():
            if state.position == (x, y):
                state.flags.discard("wet")
        return ActionResult("ok")

    # -- observation --------------------------------------------------------

    def observe(self) -> Observation:
        """Synthesize this tick's observation.

        Stacked-under and contained entities are occluded (position only).
        With noise enabled, non-agent reported positions get independent
        uniform {-1, 0, 1} offsets per axis from the seeded rng, two draws
        per non-agent entity in id order. An entity whose occlusion and
        (when visible) flags, attributes, contents and support match its
        previous reading gets that same Reading object back if its reported
        position matches too, so what is kept on it carries over, and else
        one the previous reading makes with `Reading.moved_to`, which takes
        over what does not depend on the position. Only an entity changed
        in more than its position gets a Reading built from its state.
        """
        occluded = set(self._holder)
        for state in self.entities.values():
            if state.on is not None:
                occluded.add(state.on)
        readings: dict[str, Reading] = {}
        last = self._readings
        for entity_id, state in self.entities.items():
            reported = state.position
            if self.noise and entity_id != self.agent:
                dx = self.rng.randint(-1, 1)
                dy = self.rng.randint(-1, 1)
                reported = (
                    min(max(reported[0] + dx, 0), self.width - 1),
                    min(max(reported[1] + dy, 0), self.height - 1),
                )
            hidden = entity_id in occluded
            previous = last.get(entity_id)
            if previous is not None:
                if _shows(previous, hidden, state):
                    if previous.position == reported:
                        readings[entity_id] = previous
                        continue
                    readings[entity_id] = previous.moved_to(
                        reported, self.region_of(reported), self.tick
                    )
                    continue
            if hidden:
                reading = Reading(entity_id, reported, self.region_of(reported), True)
            else:
                reading = Reading(
                    entity_id,
                    reported,
                    self.region_of(reported),
                    False,
                    dict(state.attributes),
                    frozenset(state.flags),
                    state.contains,
                    state.on,
                )
            readings[entity_id] = reading
        self._readings = readings
        return Observation(self.tick, readings)


def _shows(reading: Reading, occluded: bool, state: Entity) -> bool:
    """Whether `reading` shows `state` as the reading `observe` would build
    for it, but for the reported position and the region that follows from
    it: an occluded reading shows nothing else."""
    if reading.occluded != occluded:
        return False
    return occluded or (
        reading.flags == state.flags
        and reading.attributes == state.attributes
        and reading.contains == state.contains
        and reading.on == state.on
    )
