"""Deterministic tick-based household gridworld.

Entities occupy grid cells, carry attributes and state flags, and may rest
on one another (each stacked entity has exactly one support below it;
surface categories such as tables may hold several independent stacks).
Actions have physics-lite effects; scripted exogenous events fire after the
action each tick; observations are synthesized with stack/containment
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
contains (comma list), on (supporting entity).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

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


class ScenarioError(ValueError):
    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        where = ""
        if path:
            where += path
        if line_no is not None:
            where += f":{line_no}"
        super().__init__(f"{where}: {message}" if where else message)


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
    step_index: int = -1

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


@dataclass(frozen=True)
class WorldEvent:
    tick: int
    entity: str
    kind: str  # flag_set | flag_cleared | moved
    detail: str


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
class EntitySpec:
    entity_id: str
    position: tuple[int, int]
    attributes: dict[str, object] = field(default_factory=dict)
    flags: set[str] = field(default_factory=set)
    contains: tuple[str, ...] = ()
    on: str | None = None


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
    entities: dict[str, EntitySpec]
    agent: str
    events: list[ExogenousEvent]
    tasks: list[TaskSpec]
    facts: list[Fact]
    config_overrides: dict[str, str]
    version: int = 1
    path: str | None = None


def parse_scenario(text: str, path: str | None = None) -> Scenario:
    width = height = None
    regions: list[Region] = []
    entities: dict[str, EntitySpec] = {}
    agent: str | None = None
    events: list[ExogenousEvent] = []
    tasks: list[TaskSpec] = []
    facts: list[Fact] = []
    overrides: dict[str, str] = {}
    version = 1

    def err(message: str, line_no: int) -> ScenarioError:
        return ScenarioError(message, line_no, path)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "version":
            if len(parts) != 2 or not parts[1].isdigit():
                raise err("expected 'version <n>'", line_no)
            version = int(parts[1])
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
            regions.append(Region(parts[1], *coords))
        elif head in ("agent", "entity"):
            if len(parts) < 4:
                raise err(f"expected '{head} <id> <x> <y> [key=value ...]'", line_no)
            entity_id = parts[1]
            if entity_id in entities:
                raise err(f"duplicate entity id {entity_id!r}", line_no)
            x, y = _int(parts[2], line_no, path), _int(parts[3], line_no, path)
            spec = EntitySpec(entity_id=entity_id, position=(x, y))
            for pair in parts[4:]:
                key, eq, value = pair.partition("=")
                if not eq:
                    raise err(f"expected key=value, got {pair!r}", line_no)
                if key not in _ENTITY_LINE_KEYS:
                    raise err(f"unknown attribute {key!r}", line_no)
                if key == "flags":
                    spec.flags = {f for f in value.split(",") if f}
                elif key == "contains":
                    spec.contains = tuple(v for v in value.split(",") if v)
                elif key == "on":
                    spec.on = value
                elif key == "size":
                    spec.attributes["size"] = _int(value, line_no, path)
                else:
                    spec.attributes[key] = value
            if head == "agent":
                if agent is not None:
                    raise err("scenario may declare only one agent", line_no)
                agent = entity_id
                spec.attributes.setdefault("category", "agent")
            entities[entity_id] = spec
        elif head == "fact":
            if len(parts) not in (4, 5):
                raise err("expected 'fact <subject> <relation> <object> [conf]'", line_no)
            confidence = float(parts[4]) if len(parts) == 5 else 1.0
            fact = Fact(parts[1], parts[2], parse_literal(parts[3]), confidence, 0, "asserted")
            try:
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
                events.append(ExogenousEvent(tick, kind, entity_id, (rest[0],)))
            elif kind == "teleport":
                if len(rest) != 2:
                    raise err("expected 'at <tick> teleport <entity> <x> <y>'", line_no)
                events.append(
                    ExogenousEvent(
                        tick, kind, entity_id,
                        (_int(rest[0], line_no, path), _int(rest[1], line_no, path)),
                    )
                )
            elif kind == "velocity":
                if len(rest) != 2:
                    raise err("expected 'at <tick> velocity <entity> <dx> <dy>'", line_no)
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
        if spec.on is not None:
            seen = {spec.entity_id}
            cursor = spec.on
            while cursor is not None:
                if cursor in seen:
                    raise ScenarioError(
                        f"support cycle through entity {spec.entity_id!r}", path=path
                    )
                seen.add(cursor)
                cursor = entities[cursor].on if cursor in entities else None
        for contained in spec.contains:
            if contained not in entities:
                raise ScenarioError(
                    f"entity {spec.entity_id!r} contains unknown entity {contained!r}",
                    path=path,
                )
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
        version=version,
        path=path,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path=path) from exc
    return parse_scenario(text, path)


def _int(token: str, line_no: int, path: str | None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"expected integer, got {token!r}", line_no, path) from None


@dataclass
class EntityState:
    entity_id: str
    position: tuple[int, int]
    attributes: dict[str, object]
    flags: set[str]
    contains: tuple[str, ...]
    on: str | None
    velocity: tuple[int, int] = (0, 0)

    def is_surface(self) -> bool:
        return self.attributes.get("category") in SURFACE_CATEGORIES


class WorldState:
    """Mutable simulator state; one instance per run, stepped in place."""

    def __init__(self, scenario: Scenario, seed: int = 0, noise: bool = False) -> None:
        self.scenario = scenario
        self.width = scenario.width
        self.height = scenario.height
        self.regions = list(scenario.regions)
        self.agent = scenario.agent
        self.tick = 0
        self.seed = seed
        self.noise = noise
        self.rng = random.Random(seed)
        self.carrying: str | None = None
        self._action_events: list[WorldEvent] = []
        self.entities: dict[str, EntityState] = {}
        for entity_id in sorted(scenario.entities):
            spec = scenario.entities[entity_id]
            position = spec.position
            if spec.on is not None:
                position = scenario.entities[spec.on].position
            self.entities[entity_id] = EntityState(
                entity_id=entity_id,
                position=position,
                attributes=dict(spec.attributes),
                flags=set(spec.flags),
                contains=spec.contains,
                on=spec.on,
            )
        self._schedule: dict[int, list[ExogenousEvent]] = {}
        for event in scenario.events:
            self._schedule.setdefault(event.tick, []).append(event)
        # tick-0 events are initial conditions, applied before the first step
        for event in self._schedule.get(0, []):
            state = self.entities[event.entity]
            if event.kind == "set":
                state.flags.add(str(event.args[0]))
            elif event.kind == "clear":
                state.flags.discard(str(event.args[0]))
            elif event.kind == "teleport":
                state.position = (int(event.args[0]), int(event.args[1]))
            elif event.kind == "velocity":
                state.velocity = (int(event.args[0]), int(event.args[1]))

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

    def stack_top(self, entity_id: str) -> str:
        """Walk upward from an entity to the top of its stack."""
        top = entity_id
        while True:
            above = self.supported_by(top)
            if not above:
                return top
            top = above[0]

    def stacks_on(self, surface: str) -> list[list[str]]:
        """All chains rooted at a surface, each bottom-to-top."""
        stacks = []
        for base in self.supported_by(surface):
            chain = [base]
            while True:
                above = self.supported_by(chain[-1])
                if not above:
                    break
                chain.append(above[0])
            stacks.append(chain)
        return stacks

    def is_contained(self, entity_id: str) -> bool:
        return any(entity_id in st.contains for st in self.entities.values())

    # -- stepping -----------------------------------------------------------

    def step(self, action: Action) -> tuple[list[WorldEvent], ActionResult]:
        """Advance one tick: action, then motion, then scripted events."""
        self.tick += 1
        prev_positions = {e: st.position for e, st in self.entities.items()}
        prev_flags = {e: set(st.flags) for e, st in self.entities.items()}

        self._action_events: list[WorldEvent] = []
        result = self._apply_action(action)

        for entity_id in sorted(self.entities):
            state = self.entities[entity_id]
            if state.velocity != (0, 0):
                x = min(max(state.position[0] + state.velocity[0], 0), self.width - 1)
                y = min(max(state.position[1] + state.velocity[1], 0), self.height - 1)
                state.position = (x, y)
        for event in self._schedule.get(self.tick, []):
            state = self.entities[event.entity]
            if event.kind == "set":
                state.flags.add(str(event.args[0]))
            elif event.kind == "clear":
                state.flags.discard(str(event.args[0]))
            elif event.kind == "teleport":
                state.position = (int(event.args[0]), int(event.args[1]))
            elif event.kind == "velocity":
                state.velocity = (int(event.args[0]), int(event.args[1]))

        if self.carrying is not None:
            self.entities[self.carrying].position = self.entities[self.agent].position
        for entity_id in sorted(self.entities):
            state = self.entities[entity_id]
            if state.on is not None:
                root = state.on
                while self.entities[root].on is not None:
                    root = self.entities[root].on
                state.position = self.entities[root].position
        # contents travel with their container (containers may nest)
        for _ in range(8):
            changed = False
            for entity_id in sorted(self.entities):
                container = self.entities[entity_id]
                for contained in container.contains:
                    if self.entities[contained].position != container.position:
                        self.entities[contained].position = container.position
                        changed = True
            if not changed:
                break

        events: list[WorldEvent] = list(self._action_events)
        for entity_id in sorted(self.entities):
            state = self.entities[entity_id]
            if state.position != prev_positions[entity_id]:
                state.flags.add("moving")
            else:
                state.flags.discard("moving")
        for entity_id in sorted(self.entities):
            state = self.entities[entity_id]
            before, after = prev_flags[entity_id], state.flags
            for flag in sorted(after - before):
                events.append(WorldEvent(self.tick, entity_id, "flag_set", flag))
            for flag in sorted(before - after):
                events.append(WorldEvent(self.tick, entity_id, "flag_cleared", flag))
            if state.position != prev_positions[entity_id]:
                x, y = state.position
                events.append(WorldEvent(self.tick, entity_id, "moved", f"{x},{y}"))

        result.delta = self._delta_facts(events)
        return events, result

    def _delta_facts(self, events: list[WorldEvent]) -> list[Fact]:
        delta = []
        for event in events:
            if event.kind == "moved":
                delta.append(Fact(event.entity, "at", event.detail, 1.0, self.tick, "perceived"))
            elif event.kind == "flag_set":
                delta.append(
                    Fact(event.entity, "has_state", event.detail, 1.0, self.tick, "perceived")
                )
        return delta

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
            if self.distance(self.agent, target) > 1.0 + 1e-9:
                return ActionResult("failed", reason="out_of_range")
            if self.supported_by(target):
                return ActionResult("failed", reason="stacked_under")
            if self.is_contained(target):
                return ActionResult("failed", reason="contained")
            state = self.entities[target]
            state.on = None
            state.flags.add("carried")
            state.position = agent.position
            self.carrying = target
            return ActionResult("ok")

        if name == "PlaceOn":
            moved, target = action.args
            if self.carrying != moved:
                return ActionResult("failed", reason="not_carrying")
            if target not in self.entities or target == moved:
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if self.distance(self.agent, target) > 1.0 + 1e-9:
                return ActionResult("failed", reason="out_of_range")
            target_state = self.entities[target]
            support_id = target if target_state.is_surface() else self.stack_top(target)
            support = self.entities[support_id]
            state = self.entities[moved]
            state.on = support_id
            state.position = support.position
            state.flags.discard("carried")
            self.carrying = None
            self._action_events.append(WorldEvent(self.tick, moved, "placed", support_id))
            flags: tuple[str, ...] = ()
            if (
                not support.is_surface()
                and "fragile" in support.flags
                and "fragile" not in state.flags
            ):
                support.flags.add("broken")
                flags = ("instability",)
            return ActionResult("ok", flags=flags)

        target = action.args[0] if name != "Mop" else None
        if name == "CutPower":
            if target not in self.entities:
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if self.distance(self.agent, target) > 1.0 + 1e-9:
                return ActionResult("failed", reason="out_of_range")
            if "powered" not in self.entities[target].flags:
                return ActionResult("failed", reason="not_powered")
            self.entities[target].flags.discard("powered")
            return ActionResult("ok")

        if name == "FixLeak":
            if target not in self.entities:
                return ActionResult("failed", reason=f"no_such_entity:{target}")
            if self.distance(self.agent, target) > 1.0 + 1e-9:
                return ActionResult("failed", reason="out_of_range")
            if "leaking" not in self.entities[target].flags:
                return ActionResult("failed", reason="not_leaking")
            self.entities[target].flags.discard("leaking")
            return ActionResult("ok")

        if name == "Mop":
            try:
                x, y = int(action.args[0]), int(action.args[1])
            except ValueError:
                return ActionResult("failed", reason="bad_cell")
            if not (0 <= x < self.width and 0 <= y < self.height):
                return ActionResult("failed", reason="out_of_bounds")
            ax, ay = agent.position
            if math.hypot(x - ax, y - ay) > 1.0 + 1e-9:
                return ActionResult("failed", reason="out_of_range")
            for entity_id in sorted(self.entities):
                state = self.entities[entity_id]
                if state.position == (x, y):
                    state.flags.discard("wet")
            return ActionResult("ok")

        return ActionResult("failed", reason=f"unknown_action:{name}")

    # -- observation --------------------------------------------------------

    def observe(self, radius: float | None = None) -> Observation:
        """Synthesize this tick's observation.

        Stacked-under and contained entities are occluded (position only).
        With noise enabled, non-agent reported positions get independent
        uniform {-1, 0, 1} offsets per axis from the seeded rng.
        """
        agent_pos = self.entities[self.agent].position
        readings: dict[str, Reading] = {}
        for entity_id in sorted(self.entities):
            state = self.entities[entity_id]
            if radius is not None and entity_id != self.agent:
                dist = math.hypot(
                    state.position[0] - agent_pos[0], state.position[1] - agent_pos[1]
                )
                if dist > radius:
                    continue
            reported = state.position
            if self.noise and entity_id != self.agent:
                dx = self.rng.randint(-1, 1)
                dy = self.rng.randint(-1, 1)
                reported = (
                    min(max(reported[0] + dx, 0), self.width - 1),
                    min(max(reported[1] + dy, 0), self.height - 1),
                )
            occluded = bool(self.supported_by(entity_id)) or self.is_contained(entity_id)
            if occluded:
                readings[entity_id] = Reading(
                    entity=entity_id,
                    position=reported,
                    region=self.region_of(reported),
                    occluded=True,
                )
            else:
                readings[entity_id] = Reading(
                    entity=entity_id,
                    position=reported,
                    region=self.region_of(reported),
                    occluded=False,
                    attributes=dict(state.attributes),
                    flags=frozenset(state.flags),
                    contains=state.contains,
                    on=state.on,
                )
        return Observation(tick=self.tick, readings=readings)
