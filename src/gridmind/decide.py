"""The semantic-driven decision loop's planning half.

Task records from scenarios are interpreted into checkable goal
predicates; a planner query is a byte-exact snapshot of working memory
plus task/hazard/episode context; plans come from the bundled scripted
planner or from an external planner speaking a newline-delimited JSON
protocol over a subprocess's standard streams or a TCP socket.

Wire protocol (version 1, UTF-8, one message per line, floats at six
decimals, canonical field order)::

    request:  {"version": 1, "task": {...}, "hazards": [[s, r, o, conf, tick], ...],
               "facts": [[s, r, o, conf, tick], ...], "episodes": [...],
               "actions": [{"name": ..., "arity": ...}, ...]}
    response: {"steps": [{"action": ..., "args": [...], "effects": [...]}, ...]}
              | {"error": "..."}

A malformed response rejects the whole plan atomically (code
planner_malformed with the offending path); a timeout raises
planner_timeout. Either way no step of the rejected plan executes.
"""

from __future__ import annotations

import json
import math
import select
import socket
import subprocess
from dataclasses import dataclass, field

from . import canonical
from .kb import Fact
from .memory import Episode, WorkingMemory
from .world import (
    ACTION_CATALOG,
    Action,
    ActionResult,
    Scenario,
    SURFACE_CATEGORIES,
    TaskSpec,
    WorldState,
)

TASK_KINDS = ("arrange", "fix_hazard", "navigate", "fetch")
ARRANGE_SORT_KEYS = ("color", "size")
WIRE_VERSION = 1


class TaskError(ValueError):
    pass


class PlannerError(Exception):
    """Planner-side failure: the decision cycle fails, nothing executes."""

    def __init__(self, code: str, detail: str, path: str | None = None):
        super().__init__(f"{code}: {detail}" + (f" (at {path})" if path else ""))
        self.code = code
        self.detail = detail
        self.path = path


@dataclass(frozen=True)
class GoalCondition:
    kind: str
    args: tuple[str, ...]

    def check(self, world: WorldState) -> bool:
        if self.kind == "zone_clear":
            zone, flag = self.args
            return all(
                flag not in world.entities[e].flags for e in world.entities_in_region(zone)
            )
        if self.kind == "adjacent":
            (target,) = self.args
            return world.distance(world.agent, target) <= 1.0 + 1e-9
        if self.kind == "object_at":
            obj, dest = self.args
            state = world.entities[obj]
            return state.on == dest or state.position == world.entities[dest].position
        if self.kind in ("grouped_by_color", "sizes_descending", "fragile_topmost"):
            surface = self.args[0]
            objects = set(self.args[1:])
            stacks = [s for s in world.stacks_on(surface) if set(s) & objects]
            placed = {e for stack in stacks for e in stack if e in objects}
            if placed != objects:
                return False
            if self.kind == "grouped_by_color":
                colors = []
                for stack in stacks:
                    stack_colors = {
                        str(world.entities[e].attributes.get("color")) for e in stack
                    }
                    if len(stack_colors) != 1:
                        return False
                    colors.append(stack_colors.pop())
                return len(colors) == len(set(colors))
            if self.kind == "sizes_descending":
                for stack in stacks:
                    for fragile in (False, True):
                        sizes = [
                            int(world.entities[e].attributes.get("size", 0))
                            for e in stack
                            if ("fragile" in world.entities[e].flags) == fragile
                        ]
                        if any(a < b for a, b in zip(sizes, sizes[1:])):
                            return False
                return True
            for stack in stacks:  # fragile_topmost
                seen_fragile = False
                for entity in stack:
                    if "fragile" in world.entities[entity].flags:
                        seen_fragile = True
                    elif seen_fragile:
                        return False
            return True
        raise TaskError(f"unknown goal condition {self.kind!r}")

    def to_record(self) -> dict[str, object]:
        return {"kind": self.kind, "args": list(self.args)}


@dataclass
class TaskInstruction:
    kind: str
    params: dict[str, str]
    goal: tuple[GoalCondition, ...]
    agent: str
    task_refs: frozenset[str]

    def goal_satisfied(self, world: WorldState) -> bool:
        return all(condition.check(world) for condition in self.goal)

    def to_record(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "agent": self.agent,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }


def interpret_task(spec: TaskSpec, scenario: Scenario) -> TaskInstruction:
    """Validate a structured task record and synthesize its goal predicate."""
    if spec.kind not in TASK_KINDS:
        raise TaskError(f"unknown task kind {spec.kind!r} (known: {', '.join(TASK_KINDS)})")
    params = dict(spec.params)
    agent = scenario.agent

    if spec.kind == "arrange":
        surface = params.get("surface")
        if not surface or surface not in scenario.entities:
            raise TaskError("arrange: missing or unknown 'surface' parameter")
        if scenario.entities[surface].attributes.get("category") not in SURFACE_CATEGORIES:
            raise TaskError(f"arrange: {surface!r} is not a surface")
        sort_keys = tuple(k for k in params.get("sort", "color,size").split(",") if k)
        unknown = [k for k in sort_keys if k not in ARRANGE_SORT_KEYS]
        if unknown or not sort_keys:
            raise TaskError(f"arrange: unsupported sort keys {unknown or '(none)'}")
        constraint = params.get("constraint", "fragile_on_top")
        if constraint != "fragile_on_top":
            raise TaskError(f"arrange: unknown constraint {constraint!r}")
        if "objects" in params:
            objects = tuple(o for o in params["objects"].split(",") if o)
            missing = [o for o in objects if o not in scenario.entities]
            if missing:
                raise TaskError(f"arrange: unknown objects {missing}")
        else:
            objects = tuple(
                sorted(
                    e
                    for e, s in scenario.entities.items()
                    if e != agent
                    and "color" in s.attributes
                    and "size" in s.attributes
                    and s.attributes.get("category") not in SURFACE_CATEGORIES
                )
            )
        if not objects:
            raise TaskError("arrange: no objects to arrange")
        params["sort"] = ",".join(sort_keys)
        params["constraint"] = constraint
        params["objects"] = ",".join(objects)
        goal = (
            GoalCondition("grouped_by_color", (surface,) + objects),
            GoalCondition("sizes_descending", (surface,) + objects),
            GoalCondition("fragile_topmost", (surface,) + objects),
        )
        refs = frozenset(objects) | {surface, agent}
        return TaskInstruction(spec.kind, params, goal, agent, refs)

    if spec.kind == "fix_hazard":
        zone = params.get("zone")
        region_ids = {r.region_id for r in scenario.regions}
        if not zone or zone not in region_ids:
            raise TaskError(f"fix_hazard: unknown zone {zone!r}")
        goal = (
            GoalCondition("zone_clear", (zone, "leaking")),
            GoalCondition("zone_clear", (zone, "wet")),
        )
        zone_region = next(r for r in scenario.regions if r.region_id == zone)
        refs = frozenset(
            e for e, s in scenario.entities.items() if zone_region.contains(s.position)
        ) | {agent}
        return TaskInstruction(spec.kind, params, goal, agent, refs)

    if spec.kind == "navigate":
        target = params.get("target")
        if not target or target not in scenario.entities:
            raise TaskError(f"navigate: unknown target {target!r}")
        return TaskInstruction(
            spec.kind,
            params,
            (GoalCondition("adjacent", (target,)),),
            agent,
            frozenset({target, agent}),
        )

    # fetch
    obj, dest = params.get("object"), params.get("to")
    if not obj or obj not in scenario.entities:
        raise TaskError(f"fetch: unknown object {obj!r}")
    if not dest or dest not in scenario.entities:
        raise TaskError(f"fetch: unknown destination {dest!r}")
    return TaskInstruction(
        spec.kind,
        params,
        (GoalCondition("object_at", (obj, dest)),),
        agent,
        frozenset({obj, dest, agent}),
    )


# ---------------------------------------------------------------------------
# planner query

@dataclass
class PlannerQuery:
    task: dict[str, object]
    hazards: list[list[object]]
    facts: list[list[object]]
    episodes: list[dict[str, object]]
    actions: list[dict[str, object]]
    version: int = WIRE_VERSION

    def to_payload(self) -> dict[str, object]:
        return {
            "version": self.version,
            "task": self.task,
            "hazards": self.hazards,
            "facts": self.facts,
            "episodes": self.episodes,
            "actions": self.actions,
        }

    def to_wire_line(self) -> str:
        return canonical.dumps(self.to_payload())


def formulate_query(
    wm: WorkingMemory,
    task: TaskInstruction,
    hazards: list[Fact],
    episodes: list[Episode],
) -> PlannerQuery:
    """Deterministic planner query: hazards first, then the WM snapshot."""
    return PlannerQuery(
        task=task.to_record(),
        hazards=[f.to_array() for f in sorted(hazards, key=lambda f: f.key())],
        facts=[f.to_array() for f in wm.snapshot_facts()],
        episodes=[
            {
                "task": e.task_kind,
                "outcome": e.outcome,
                "start_tick": e.start_tick,
                "end_tick": e.end_tick,
            }
            for e in episodes
        ],
        actions=[{"name": n, "arity": ACTION_CATALOG[n]} for n in sorted(ACTION_CATALOG)],
    )


# ---------------------------------------------------------------------------
# plans

@dataclass
class PlanStep:
    action: Action
    effects: list[Fact] = field(default_factory=list)

    def to_record(self) -> dict[str, object]:
        return {
            "action": self.action.name,
            "args": list(self.action.args),
            "effects": [f.to_array() for f in self.effects],
        }


@dataclass
class Plan:
    steps: list[PlanStep]
    source: str = "scripted"

    def to_records(self) -> list[dict[str, object]]:
        return [step.to_record() for step in self.steps]


class _QueryView:
    """Index over a query's fact arrays for the scripted planner."""

    def __init__(self, query: PlannerQuery):
        self.positions: dict[str, tuple[int, int]] = {}
        self.colors: dict[str, str] = {}
        self.sizes: dict[str, int] = {}
        self.states: dict[str, set[str]] = {}
        self.regions: dict[str, str] = {}
        for row in query.facts:
            subject, relation, obj = str(row[0]), str(row[1]), row[2]
            if relation == "at" and isinstance(obj, str):
                x_text, _, y_text = obj.partition(",")
                self.positions[subject] = (int(x_text), int(y_text))
            elif relation == "color":
                self.colors[subject] = str(obj)
            elif relation == "size":
                self.sizes[subject] = int(obj)  # type: ignore[arg-type]
            elif relation == "has_state":
                self.states.setdefault(subject, set()).add(str(obj))
            elif relation == "located_in":
                self.regions[subject] = str(obj)
        self.hazard_entities = [str(row[0]) for row in query.hazards]

    def has_state(self, entity: str, flag: str) -> bool:
        return flag in self.states.get(entity, set())

    def position(self, entity: str) -> tuple[int, int]:
        if entity not in self.positions:
            raise PlannerError(
                "planner_error", f"no believed position for {entity!r} in query facts"
            )
        return self.positions[entity]


def _moves_to_adjacent(
    cur: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[Action], tuple[int, int]]:
    """Greedy 8-way moves until within one cell (Euclidean) of the goal."""
    moves: list[Action] = []
    x, y = cur
    while math.hypot(goal[0] - x, goal[1] - y) > 1.0 + 1e-9:
        dx = (goal[0] > x) - (goal[0] < x)
        dy = (goal[1] > y) - (goal[1] < y)
        direction = {
            (0, -1): "N", (1, -1): "NE", (1, 0): "E", (1, 1): "SE",
            (0, 1): "S", (-1, 1): "SW", (-1, 0): "W", (-1, -1): "NW",
        }[(dx, dy)]
        moves.append(Action("Move", (direction,)))
        x, y = x + dx, y + dy
    return moves, (x, y)


def plan_scripted(query: PlannerQuery) -> Plan:
    """Deterministic plan synthesis; a pure function of the query bytes."""
    view = _QueryView(query)
    kind = str(query.task.get("kind"))
    params = dict(query.task.get("params", {}))  # type: ignore[arg-type]
    agent = str(query.task.get("agent"))
    steps: list[PlanStep] = []
    pos = view.position(agent)

    def pick_and_place(obj: str, target: str, target_pos: tuple[int, int]) -> None:
        nonlocal pos
        moves, pos = _moves_to_adjacent(pos, view.position(obj))
        steps.extend(PlanStep(action=m) for m in moves)
        steps.append(
            PlanStep(
                action=Action("PickUp", (obj,)),
                effects=[Fact(obj, "has_state", "carried", 1.0, 0, "derived")],
            )
        )
        moves, pos = _moves_to_adjacent(pos, target_pos)
        steps.extend(PlanStep(action=m) for m in moves)
        steps.append(
            PlanStep(
                action=Action("PlaceOn", (obj, target)),
                effects=[Fact(obj, "OnTopOf", target, 1.0, 0, "derived")],
            )
        )

    if kind == "arrange":
        surface = str(params["surface"])
        objects = [o for o in str(params["objects"]).split(",") if o]
        surface_pos = view.position(surface)
        groups: dict[str, list[str]] = {}
        for obj in objects:
            groups.setdefault(view.colors.get(obj, ""), []).append(obj)
        for color in sorted(groups):
            members = groups[color]
            sturdy = [o for o in members if not view.has_state(o, "fragile")]
            fragile = [o for o in members if view.has_state(o, "fragile")]
            sturdy.sort(key=lambda o: (-view.sizes.get(o, 0), o))
            fragile.sort(key=lambda o: (-view.sizes.get(o, 0), o))
            base = surface
            for obj in sturdy + fragile:
                pick_and_place(obj, base, surface_pos)
                base = obj
    elif kind == "fix_hazard":
        zone = str(params["zone"])
        in_zone = sorted(e for e, r in view.regions.items() if r == zone)
        powered_hazards = sorted(
            {e for e in view.hazard_entities if view.has_state(e, "powered")}
        )
        for entity in powered_hazards:
            moves, pos = _moves_to_adjacent(pos, view.position(entity))
            steps.extend(PlanStep(action=m) for m in moves)
            steps.append(PlanStep(action=Action("CutPower", (entity,))))
        for entity in [e for e in in_zone if view.has_state(e, "leaking")]:
            moves, pos = _moves_to_adjacent(pos, view.position(entity))
            steps.extend(PlanStep(action=m) for m in moves)
            steps.append(PlanStep(action=Action("FixLeak", (entity,))))
        for entity in [e for e in in_zone if view.has_state(e, "wet")]:
            x, y = view.position(entity)
            moves, pos = _moves_to_adjacent(pos, (x, y))
            steps.extend(PlanStep(action=m) for m in moves)
            steps.append(PlanStep(action=Action("Mop", (str(x), str(y)))))
    elif kind == "navigate":
        target = str(params["target"])
        moves, pos = _moves_to_adjacent(pos, view.position(target))
        steps.extend(PlanStep(action=m) for m in moves)
    elif kind == "fetch":
        obj, dest = str(params["object"]), str(params["to"])
        pick_and_place(obj, dest, view.position(dest))
    else:
        raise PlannerError("planner_error", f"unsupported task kind {kind!r}")
    return Plan(steps=steps, source="scripted")


# ---------------------------------------------------------------------------
# wire protocol client

def parse_plan_response(line: str) -> Plan:
    """Validate one response line against the catalog; atomic rejection."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise PlannerError("planner_malformed", f"response is not JSON: {exc}", "/") from exc
    if not isinstance(payload, dict):
        raise PlannerError("planner_malformed", "response must be an object", "/")
    if "error" in payload:
        raise PlannerError("planner_error", str(payload["error"]))
    if "steps" not in payload:
        raise PlannerError("planner_malformed", "missing 'steps' field", "/steps")
    raw_steps = payload["steps"]
    if not isinstance(raw_steps, list):
        raise PlannerError("planner_malformed", "'steps' must be an array", "/steps")
    steps: list[PlanStep] = []
    for i, raw in enumerate(raw_steps):
        where = f"/steps/{i}"
        if not isinstance(raw, dict):
            raise PlannerError("planner_malformed", "step must be an object", where)
        name = raw.get("action")
        if not isinstance(name, str) or name not in ACTION_CATALOG:
            raise PlannerError("planner_malformed", f"unknown action {name!r}", f"{where}/action")
        args = raw.get("args", [])
        if not isinstance(args, list) or len(args) != ACTION_CATALOG[name]:
            raise PlannerError(
                "planner_malformed",
                f"action {name} expects {ACTION_CATALOG[name]} args",
                f"{where}/args",
            )
        effects = []
        raw_effects = raw.get("effects", [])
        if not isinstance(raw_effects, list):
            raise PlannerError("planner_malformed", "'effects' must be an array", f"{where}/effects")
        for j, row in enumerate(raw_effects):
            if not isinstance(row, list) or len(row) != 5:
                raise PlannerError(
                    "planner_malformed", "effect must be [s, r, o, conf, tick]",
                    f"{where}/effects/{j}",
                )
            try:
                fact = Fact(str(row[0]), str(row[1]), row[2], float(row[3]), int(row[4]), "derived")
                fact.validate()
            except (TypeError, ValueError) as exc:
                raise PlannerError(
                    "planner_malformed", f"bad effect: {exc}", f"{where}/effects/{j}"
                ) from exc
            effects.append(fact)
        steps.append(PlanStep(action=Action(name, tuple(str(a) for a in args)), effects=effects))
    return Plan(steps=steps, source="external")


class SubprocessPlanner:
    """Speaks the wire protocol to a planner over its standard streams."""

    def __init__(self, argv: list[str], timeout: float = 30.0):
        self.argv = argv
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None

    def _ensure(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        return self._proc

    def plan(self, query: PlannerQuery) -> Plan:
        try:
            proc = self._ensure()
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write(query.to_wire_line() + "\n")
            proc.stdin.flush()
        except OSError as exc:
            raise PlannerError("planner_error", f"planner process unreachable: {exc}") from exc
        ready, _, _ = select.select([proc.stdout], [], [], self.timeout)
        if not ready:
            raise PlannerError("planner_timeout", f"no response within {self.timeout}s")
        line = proc.stdout.readline()
        if not line:
            raise PlannerError("planner_error", "planner closed its output stream")
        return parse_plan_response(line)

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._proc = None


class TcpPlanner:
    """Wire protocol over a TCP connection (one request per line)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None

    def _ensure(self):
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            self._sock.settimeout(self.timeout)
            self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")
        return self._file

    def plan(self, query: PlannerQuery) -> Plan:
        try:
            fh = self._ensure()
            fh.write(query.to_wire_line() + "\n")
            fh.flush()
            line = fh.readline()
        except socket.timeout as exc:
            raise PlannerError("planner_timeout", f"no response within {self.timeout}s") from exc
        except OSError as exc:
            raise PlannerError("planner_error", f"planner unreachable: {exc}") from exc
        if not line:
            raise PlannerError("planner_error", "planner closed the connection")
        return parse_plan_response(line)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._file = None


# ---------------------------------------------------------------------------
# execution

def execute(plan: Plan, runtime, task: TaskInstruction) -> tuple[list[ActionResult], str]:
    """Run plan steps, one tick each, through the full cognitive pipeline.

    Stops early on goal satisfaction, on a failed step, on a TriggerReplan
    directive, or when the tick budget runs out. A failed step never has
    successors executed within the same cycle.
    """
    results: list[ActionResult] = []
    for index, step in enumerate(plan.steps):
        if not runtime.ticks_left():
            return results, "out_of_ticks"
        outcome = runtime.tick(step.action)
        outcome.result.step_index = index
        results.append(outcome.result)
        if task.goal_satisfied(runtime.world):
            return results, "success"
        if outcome.result.failed:
            return results, "failed_step"
        if outcome.replan:
            return results, "replan"
    if task.goal_satisfied(runtime.world):
        return results, "success"
    return results, "exhausted"
