"""Correctness checks written independently of the engine.

Nothing here imports ``gridmind``: the checks read the engine's results
(trace lines, the final world state, the final tick's unified graph and
its contradiction list) and recompute what those results should be from
the scenario layout and the data files, by brute force.

Every check raises ``CheckFailed`` with a message naming what differs.
"""

from __future__ import annotations

import json
import math
import os

# perceived spatial relations, and the vocabulary composition works over
PAIRWISE = ("LeftOf", "RightOf", "Above", "Below", "Near")
SPATIAL = frozenset(PAIRWISE) | {"OnTopOf", "Inside"}
# relation(a, b) by the sign of b's offset from a; y grows southward
CARDINAL = {(1, 0): "LeftOf", (-1, 0): "RightOf", (0, 1): "Above", (0, -1): "Below"}
STEPS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- data files ---------------------------------------------------------------


def _data_lines(root: str, name: str):
    path = os.path.join(root, "src", "gridmind", "data", name)
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].split()
            if line:
                yield line


def load_exclusions(root: str) -> list[tuple[str, str]]:
    return [(p[1], p[2]) for p in _data_lines(root, "exclusions.txt") if p[0] == "opposite"]


def load_composition(root: str) -> dict[tuple[str, str], str]:
    return {
        (p[1], p[2]): p[4]
        for p in _data_lines(root, "composition.txt")
        if p[0] == "compose" and p[3] == "->"
    }


def asserted_facts(scenario_text: str) -> set[tuple[str, str, str]]:
    out = set()
    for raw in scenario_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "fact":
            out.add((parts[1], parts[2], parts[3]))
    return out


# -- views of engine results ----------------------------------------------------


def trace_rows(lines: list[str]) -> tuple[dict, list[dict], dict]:
    records = [json.loads(line) for line in lines]
    return records[0], records[1:-1], records[-1]


def graph_keys(facts) -> set[tuple[str, str, object]]:
    return {(f.subject, f.relation, f.obj) for f in facts}


def new_fact_keys(rows: list[dict]) -> set[tuple[str, str, object]]:
    return {(f[0], f[1], f[2]) for row in rows for f in row["new_facts"]}


def positions(world) -> dict[str, tuple[int, int]]:
    return {e: tuple(st.position) for e, st in world.entities.items()}


# -- goals ----------------------------------------------------------------------


def within_one(world, a: str, b: str) -> bool:
    (ax, ay), (bx, by) = world.entities[a].position, world.entities[b].position
    return (ax - bx) ** 2 + (ay - by) ** 2 <= 1


def check_goal(task: dict[str, str], world) -> None:
    """The task's goal, read off the final world state."""
    kind = task["kind"]
    if kind == "fetch":
        obj, dest = task["object"], task["to"]
        require(
            world.entities[obj].on == dest,
            f"fetch: {obj} rests on {world.entities[obj].on!r}, not {dest}",
        )
    elif kind == "navigate":
        target = task["target"]
        require(
            within_one(world, world.agent, target),
            f"navigate: agent at {world.entities[world.agent].position} is not within "
            f"one cell of {target} at {world.entities[target].position}",
        )


def task_line(scenario_text: str) -> dict[str, str]:
    for raw in scenario_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "task":
            task = dict(p.split("=", 1) for p in parts[2:])
            task["kind"] = parts[1]
            return task
    raise CheckFailed("scenario declares no task")


def layout(scenario_text: str) -> tuple[tuple[int, int], dict[str, tuple[int, int]]]:
    """Grid size and every entity's starting cell, from the scenario text."""
    size, cells = (0, 0), {}
    for raw in scenario_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "grid":
            size = (int(parts[1]), int(parts[2]))
        elif parts[0] in ("agent", "entity"):
            cells[parts[1]] = (int(parts[2]), int(parts[3]))
    return size, cells


def _moves_from(size, start) -> dict[tuple[int, int], int]:
    """Breadth-first 8-connected move counts from `start` to every cell."""
    width, height = size
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x, y in frontier:
            for dx, dy in STEPS:
                cell = (x + dx, y + dy)
                if 0 <= cell[0] < width and 0 <= cell[1] < height and cell not in dist:
                    dist[cell] = dist[(x, y)] + 1
                    nxt.append(cell)
        frontier = nxt
    return dist


def route_length(size, start, targets) -> int:
    """Moves for an agent that visits each target in turn by a shortest
    route, each leg ending within distance 1 of its target and, among the
    cells such a leg can end on, on the one nearest the target."""
    total, cell = 0, start
    for tx, ty in targets:
        dist = _moves_from(size, cell)
        near = [c for c in dist if (c[0] - tx) ** 2 + (c[1] - ty) ** 2 <= 1]
        best = min(dist[c] for c in near)
        cell = min(
            (c for c in near if dist[c] == best),
            key=lambda c: ((c[0] - tx) ** 2 + (c[1] - ty) ** 2, c),
        )
        total += best
    return total


def check_route_length(scenario_text: str, ticks: int) -> None:
    """A generated run takes exactly `route_length` moves, plus one tick
    each for PickUp and PlaceOn in a fetch (nothing moves the targets)."""
    task = task_line(scenario_text)
    size, cells = layout(scenario_text)
    agent = next(
        p.split()[1] for p in scenario_text.splitlines() if p.startswith("agent ")
    )
    if task["kind"] == "fetch":
        expected = route_length(size, cells[agent], [cells[task["object"]], cells[task["to"]]]) + 2
    else:
        expected = route_length(size, cells[agent], [cells[task["target"]]])
    require(ticks == expected, f"run took {ticks} ticks; the route takes {expected}")


# -- brute-force recomputation of the final tick --------------------------------------


def perceived_pairs(world, near_distance: float) -> set[tuple[str, str, str]]:
    """Near and exact cardinal facts between free-standing entities: those
    that rest on nothing and are not being carried."""
    free = sorted(
        e for e, st in world.entities.items() if st.on is None and e != world.carrying
    )
    pos = positions(world)
    facts = set()
    for a in free:
        for b in free:
            if a == b:
                continue
            dx, dy = pos[b][0] - pos[a][0], pos[b][1] - pos[a][1]
            if math.hypot(dx, dy) < near_distance:
                facts.add((a, "Near", b))
            if dx == 0 or dy == 0:
                relation = CARDINAL.get(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
                if relation:
                    facts.add((a, relation, b))
    return facts


def structural_facts(world) -> set[tuple[str, str, str]]:
    """OnTopOf from supports, Inside from containers."""
    facts = {(e, "OnTopOf", st.on) for e, st in world.entities.items() if st.on is not None}
    for container, st in world.entities.items():
        facts |= {(inner, "Inside", container) for inner in st.contains}
    return facts


def composition_closure(base, table) -> set[tuple[str, str, str]]:
    """Exhaustive fixpoint: every pair of facts against every table entry."""
    closed = {f for f in base if f[1] in SPATIAL}
    while True:
        added = {
            (a, table[(r1, r2)], c)
            for (a, r1, b) in closed
            for (b2, r2, c) in closed
            if b == b2 and a != c and (r1, r2) in table
        }
        if added <= closed:
            return closed
        closed |= added


def contradiction_pairs(facts, exclusions) -> set[frozenset]:
    """All pairs of facts with symbol objects that cannot both hold."""
    opposite = {frozenset(p) for p in exclusions}
    oriented = {r for p in exclusions for r in p}
    keyed = sorted({(f.subject, f.relation, f.obj) for f in facts if isinstance(f.obj, str)})
    found = set()
    for i, (s1, r1, o1) in enumerate(keyed):
        for s2, r2, o2 in keyed[i + 1 :]:
            if s1 == s2 and o1 == o2 and frozenset((r1, r2)) in opposite:
                found.add(frozenset({(s1, r1, o1), (s2, r2, o2)}))
            if r1 == r2 and r1 in oriented and s1 == o2 and o1 == s2 and s1 != o1:
                found.add(frozenset({(s1, r1, o1), (s2, r2, o2)}))
    return found


def engine_contradictions(unified) -> set[frozenset]:
    return {
        frozenset({(a.subject, a.relation, a.obj), (b.subject, b.relation, b.obj)})
        for a, b in unified.contradictions
    }


def check_contradictions(unified, exclusions) -> None:
    expected = contradiction_pairs(unified.graph.facts(), exclusions)
    got = engine_contradictions(unified)
    require(
        got == expected,
        f"contradictions: {len(expected - got)} missed, {len(got - expected)} spurious "
        f"(e.g. {sorted(map(sorted, (expected ^ got)))[:1]})",
    )


def check_perception(world, unified, near_distance: float) -> None:
    expected = perceived_pairs(world, near_distance)
    got = {
        (f.subject, f.relation, f.obj)
        for f in unified.graph.facts()
        if f.relation in PAIRWISE and f.origin == "perceived"
    }
    require(
        got == expected,
        f"perceived Near/cardinal facts: {len(expected - got)} missed, "
        f"{len(got - expected)} spurious (e.g. {sorted(expected ^ got)[:2]})",
    )


def check_composition(base, unified, table) -> None:
    expected = composition_closure(base, table)
    got = {k for k in graph_keys(unified.graph.facts()) if k[1] in SPATIAL}
    require(
        got == expected,
        f"spatial closure: {len(expected - got)} missed, {len(got - expected)} spurious "
        f"(e.g. {sorted(expected ^ got)[:2]})",
    )


def check_final_tick(result, scenario_text, tables, generated: bool) -> None:
    """Contradictions and the spatial closure on the last tick's graph.

    For generated scenarios, perception is recomputed too, and the closure
    starts from the brute-force perceived facts rather than the engine's.
    The bundled scenarios stack entities three high, where the engine
    perceives the middle of a stack differently, so there the closure
    starts from the engine's own perceived and asserted facts.
    """
    exclusions, composition = tables
    world, unified = result.runtime.world, result.runtime.unified
    check_contradictions(unified, exclusions)
    if generated:
        near = result.runtime.config.near_distance
        check_perception(world, unified, near)
        base = perceived_pairs(world, near) | structural_facts(world)
    else:
        base = {
            (f.subject, f.relation, f.obj)
            for f in unified.graph.facts()
            if f.origin in ("perceived", "asserted")
        }
    base |= asserted_facts(scenario_text)
    check_composition(base, unified, composition)


# -- what each bundled scenario is for (the README's scenario table) ------------------


def _stacks_on(world, surface: str) -> list[list[str]]:
    above = {}
    for e, st in world.entities.items():
        if st.on is not None:
            above.setdefault(st.on, []).append(e)
    stacks = []
    for base in sorted(above.get(surface, [])):
        chain = [base]
        while above.get(chain[-1]):
            require(len(above[chain[-1]]) == 1, f"two entities rest on {chain[-1]}")
            chain.append(above[chain[-1]][0])
        stacks.append(chain)
    return stacks


def _arrange(rows, summary, world, graph) -> None:
    objects = {
        e
        for e, st in world.entities.items()
        if "color" in st.attributes and "size" in st.attributes
    }
    stacks = _stacks_on(world, "table1")
    require({e for s in stacks for e in s} == objects, "arrange: not every object is on table1")
    colors = []
    for stack in stacks:
        stack_colors = {world.entities[e].attributes["color"] for e in stack}
        require(len(stack_colors) == 1, f"arrange: stack {stack} mixes colors")
        colors.append(stack_colors.pop())
        fragile = [("fragile" in world.entities[e].flags) for e in stack]
        require(fragile == sorted(fragile), f"arrange: fragile item under a sturdy one in {stack}")
        for part in (False, True):
            sizes = [world.entities[e].attributes["size"] for e, f in zip(stack, fragile) if f == part]
            require(sizes == sorted(sizes, reverse=True), f"arrange: sizes not descending in {stack}")
    require(len(colors) == len(set(colors)), "arrange: one color split over two stacks")


def _actions(rows) -> list[str]:
    return [row["action"]["name"] for row in rows if row["action"]]


def _waterleak(rows, summary, world, graph) -> None:
    actions = _actions(rows)
    require("CutPower" in actions and "Mop" in actions, "waterleak: no CutPower or no Mop")
    require(actions.index("CutPower") < actions.index("Mop"), "waterleak: mopped before power was cut")
    for e, st in world.entities.items():
        if st.position[0] <= 4:  # the kitchen region
            require(not ({"wet", "leaking"} & st.flags), f"waterleak: {e} still wet or leaking")


def _vase_room(rows, summary, world, graph) -> None:
    new = new_fact_keys(rows)
    require(("vase1", "LeftOf", "bed1") in new, "vase_room: LeftOf(vase1, bed1) never derived")
    require(
        ("vase1", "Near", "bed1") not in graph_keys(graph.facts())
        and ("vase1", "Near", "bed1") not in new,
        "vase_room: Near(vase1, bed1) was derived",
    )


def _knockover(rows, summary, world, graph) -> None:
    new = new_fact_keys(rows)
    require(("liq1", "has_state", "spilled") in new, "knockover: liq1 did not spill")
    require(("liq2", "has_state", "spilled") not in new, "knockover: liq2 spilled")


def _hotcoffee(rows, summary, world, graph) -> None:
    require(
        ("coffee1", "hazard", "spill_burn") in new_fact_keys(rows),
        "hotcoffee: hazard(coffee1, spill_burn) never fired",
    )


def _crossing(rows, summary, world, graph) -> None:
    risks = [k for k in new_fact_keys(rows) if k[1] == "CollisionRisk"]
    require(bool(risks), "crossing: no collision risk flagged")
    for a, _, b in risks:
        require(a.startswith("mover_") and b.startswith("mover_") and a < b, f"crossing: odd risk {a}/{b}")


def _driving_salience(rows, summary, world, graph) -> None:
    scenery = {"building1", "building2", "tree1"}
    for row in rows[1:]:
        top = [e for e, _ in row["top"]]
        require({"car1", "ped1"} <= set(top), f"driving_salience: movers not in top-5 at tick {row['tick']}")
        worst_mover = max(top.index("car1"), top.index("ped1"))
        require(
            all(top.index(s) > worst_mover for s in scenery if s in top),
            f"driving_salience: scenery outranks a mover at tick {row['tick']}",
        )


def _teleport_fault(rows, summary, world, graph) -> None:
    for row in rows:
        mismatch = [
            a for a in row["anomalies"]
            if a["kind"] == "PredictionMismatch" and a["payload"][0] == "ball1"
        ]
        if mismatch:
            kinds = {d["kind"] for d in row["directives"]}
            require(row["tick"] == 4, f"teleport_fault: first mismatch at tick {row['tick']}")
            require("DecayPredictionConfidence" in kinds, "teleport_fault: no directive on the mismatch tick")
            return
    raise CheckFailed("teleport_fault: no prediction mismatch for ball1")


def _pickup_fail(rows, summary, world, graph) -> None:
    outcomes = [e["outcome"] for e in summary["episodes"]]
    require(outcomes == ["failure", "success"], f"pickup_fail: episodes {outcomes}")


def _nothing_more(rows, summary, world, graph) -> None:
    """The goal check already covers what the scenario shows."""


PROPERTIES = {
    "arrange": _arrange,
    "crossing": _crossing,
    "driving_salience": _driving_salience,
    "fetch_close": _nothing_more,
    "hotcoffee": _hotcoffee,
    "knockover": _knockover,
    "pickup_fail": _pickup_fail,
    "teleport_fault": _teleport_fault,
    "vase_room": _vase_room,
    "waterleak": _waterleak,
    "vase_room_ltm": _nothing_more,
}


def check_run(name, result, scenario_text, tables, generated: bool) -> None:
    """Every check that applies to one scenario run."""
    _, rows, summary = trace_rows(result.lines)
    require(summary["outcome"] == "success" and summary["goal"] is True, f"{name}: {summary['outcome']}")
    world = result.runtime.world
    check_goal(task_line(scenario_text), world)
    if generated:
        check_route_length(scenario_text, summary["ticks"])
    else:
        PROPERTIES[name](rows, summary, world, result.runtime.unified.graph)
    check_final_tick(result, scenario_text, tables, generated)
