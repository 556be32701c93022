"""Independent brute-force oracles the engine is checked against.

Each oracle is deliberately written in the most obvious way possible and
shares no code path with the engine implementation it validates.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

from gridmind import canonical
from gridmind.kb import Fact, SemanticGraph
from gridmind.reason import detect_collision

# the relations the spatial oracles draw from
SPATIAL_VOCABULARY = frozenset(
    {"LeftOf", "RightOf", "Above", "Below", "OnTopOf", "Inside", "Near"}
)


def reachability_closure(pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Transitive closure by naive DFS reachability from every node."""
    succ: dict[str, set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure: set[tuple[str, str]] = set()
    for start in {n for pair in pairs for n in pair}:
        stack = list(succ.get(start, ()))
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(succ.get(node, ()))
    return closure


def exhaustive_composition(
    facts: dict[tuple[str, str, str], float],
    table: dict[tuple[str, str], str],
) -> dict[tuple[str, str, str], float]:
    """Chaotic single-step composition applied until nothing improves.

    Facts are (subject, relation, object) -> confidence; max-merge keeps
    the larger confidence on collision.
    """
    state = dict(facts)
    changed = True
    while changed:
        changed = False
        for (s1, r1, o1), c1 in list(state.items()):
            for (s2, r2, o2), c2 in list(state.items()):
                if o1 != s2 or s1 == o2:
                    continue
                out = table.get((r1, r2))
                if out is None:
                    continue
                key = (s1, out, o2)
                conf = c1 * c2
                if conf > state.get(key, -1.0):
                    state[key] = conf
                    changed = True
    return state


def composition_table(rules) -> dict[tuple[str, str], str]:
    """The (r1, r2) -> r3 table that composition rules encode."""
    return {
        (rule.premises[0].relation, rule.premises[1].relation): rule.conclusion.relation
        for rule in rules
    }


def count_distribution(sequence: list[str], order: int, history: list[str]) -> dict[str, Fraction] | None:
    """Exact rational next-kind distribution by direct counting.

    Returns None when the trailing context never occurs in the sequence.
    """
    context = tuple(history[-order:])
    counts: dict[str, int] = {}
    for i in range(len(sequence) - order):
        if tuple(sequence[i : i + order]) == context:
            nxt = sequence[i + order]
            counts[nxt] = counts.get(nxt, 0) + 1
    if not counts:
        return None
    total = sum(counts.values())
    return {kind: Fraction(n, total) for kind, n in counts.items()}


def chaotic_forward_chain(
    facts: list[Fact],
    rules,
    rng: random.Random,
) -> dict[tuple[str, str, str], float]:
    """Fixpoint by applying one randomly chosen rule instance at a time.

    An independent check that the engine's round-based evaluation is
    order-insensitive: any chaotic application order must converge to the
    same fact set and confidences.
    """
    state: dict[tuple[str, str, str], float] = {}
    for fact in facts:
        key = fact.key()
        state[key] = max(state.get(key, 0.0), fact.confidence)
    values: dict[tuple[str, str, str], tuple[str, object]] = {
        f.key(): (f.subject, f.obj) for f in facts
    }
    while True:
        candidates = []
        items = list(state.items())
        rng.shuffle(items)
        for rule in rules:
            for binding, conf in _bindings(rule.premises, items, values):
                if not all(g.holds(binding) for g in rule.guards):
                    continue
                subject = binding[rule.conclusion.subject] if str(rule.conclusion.subject).startswith("?") else rule.conclusion.subject
                obj = binding[rule.conclusion.obj] if str(rule.conclusion.obj).startswith("?") else rule.conclusion.obj
                fact = Fact(subject, rule.conclusion.relation, obj, conf * rule.weight, 0, "derived")
                key = fact.key()
                if fact.confidence > state.get(key, -1.0) + 1e-15:
                    candidates.append((key, fact.confidence, (fact.subject, fact.obj)))
        if not candidates:
            return state
        key, conf, val = candidates[rng.randrange(len(candidates))]
        state[key] = conf
        values[key] = val


def _bindings(premises, items, values):
    """All premise bindings over (key, confidence) fact items."""
    results = [({}, 1.0)]
    for premise in premises:
        next_results = []
        for binding, conf in results:
            for (subject, relation, _obj_text), fact_conf in items:
                if relation != premise.relation:
                    continue
                obj = values[(subject, relation, _obj_text)][1]
                new = dict(binding)
                ok = True
                for term, value in ((premise.subject, subject), (premise.obj, obj)):
                    if str(term).startswith("?"):
                        if term in new and new[term] != value:
                            ok = False
                            break
                        new[term] = value
                    elif term != value:
                        ok = False
                        break
                if ok:
                    next_results.append((new, conf * fact_conf))
        results = next_results
        if not results:
            return []
    return results


def pairwise_spatial_facts(obs, near_distance: float) -> list[tuple[str, str, str]]:
    """Near and exact cardinal (subject, relation, object) triples between
    free-standing readings, in (a, b) id order, by case analysis.

    A reading is free-standing unless it rests on something or is carried.
    Near is a Euclidean distance below `near_distance`; y grows southward,
    so b due south of a makes a Above b.
    """
    free = sorted(
        e for e, r in obs.readings.items()
        if r.on is None and "carried" not in (r.flags or ())
    )
    facts = []
    for a in free:
        ax, ay = obs.readings[a].position
        for b in free:
            if a == b:
                continue
            bx, by = obs.readings[b].position
            if math.hypot(bx - ax, by - ay) < near_distance:
                facts.append((a, "Near", b))
            if ay == by and bx > ax:
                facts.append((a, "LeftOf", b))
            elif ay == by and bx < ax:
                facts.append((a, "RightOf", b))
            elif ax == bx and by > ay:
                facts.append((a, "Above", b))
            elif ax == bx and by < ay:
                facts.append((a, "Below", b))
    return facts


def all_pairs_collision_facts(trajectories, epsilon: float, tick: int) -> list[Fact]:
    """CollisionRisk(a, b) for every pair of trajectories, a before b by
    name, that `detect_collision` flags: each pair is tested."""
    names = sorted(trajectories)
    return [
        Fact(a, "CollisionRisk", b, 1.0, tick, "derived")
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if detect_collision(trajectories[a], trajectories[b], epsilon).risks
    ]


def window_events(window) -> list[tuple[str, str, str, int, int | None]]:
    """(event_id, entity, kind, start, end) of every flag event in a
    consecutive-tick window, found by rescanning the whole window for each
    flag of each entity: a flag on at the first tick or switched on opens
    an event, and the first tick without it (an absent entity has no
    flags) closes it. Numbered by (start, entity, kind), ties in flag
    order; the flag "moving" is the event kind "move"."""
    def flags_at(obs, entity):
        reading = obs.readings.get(entity)
        return set() if reading is None or reading.flags is None else set(reading.flags)

    raw = []
    for entity in sorted({e for obs in window for e in obs.readings}):
        seen = set()
        for obs in window:
            seen |= flags_at(obs, entity)
        for flag in sorted(seen):
            kind = "move" if flag == "moving" else flag
            start = None
            for obs in window:
                on = flag in flags_at(obs, entity)
                if on and start is None:
                    start = obs.tick
                elif not on and start is not None:
                    raw.append((start, entity, kind, obs.tick))
                    start = None
            if start is not None:
                raw.append((start, entity, kind, None))
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return [(f"ev{n}", entity, kind, start, end) for n, (start, entity, kind, end) in enumerate(raw, 1)]


def digest_payload(obs) -> dict[str, object]:
    """The observation digest as one dict, whose canonical JSON the trace's
    `obs` field hashes: every reading by entity id, attributes by key."""
    readings: dict[str, object] = {}
    for entity in sorted(obs.readings):
        r = obs.readings[entity]
        readings[entity] = {
            "pos": list(r.position),
            "region": r.region,
            "occluded": r.occluded,
            "attrs": {k: r.attributes[k] for k in sorted(r.attributes)} if r.attributes else None,
            "flags": sorted(r.flags) if r.flags is not None else None,
            "contains": list(r.contains),
            "on": r.on,
        }
    return {"tick": obs.tick, "readings": readings}


def occluded_entities(world) -> set[str]:
    """Entities that support another or sit in a container, found by
    scanning every entity's `on` and `contains` for each one."""
    states = world.entities.values()
    return {
        e for e in world.entities
        if any(st.on == e or e in st.contains for st in states)
    }


def anchor_roots(world) -> dict[str, str]:
    """Each entity's chain root: follow the one thing it rides on (the agent
    while carried, else its support, else the entity whose `contains`
    lists it) until a free entity. Raises AssertionError on a cycle."""
    def anchor(e):
        if e == world.carrying:
            return world.agent
        if world.entities[e].on is not None:
            return world.entities[e].on
        holders = [h for h, st in world.entities.items() if e in st.contains]
        assert len(holders) <= 1, f"{e} is in {holders}"
        return holders[0] if holders else None

    roots = {}
    for entity in world.entities:
        chain = [entity]
        while (nxt := anchor(chain[-1])) is not None:
            assert nxt not in chain, f"anchor cycle {chain + [nxt]}"
            chain.append(nxt)
        roots[entity] = chain[-1]
    return roots


def random_dag(rng: random.Random, max_nodes: int = 8) -> set[tuple[str, str]]:
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                pairs.add((nodes[i], nodes[j]))
    return pairs


def random_spatial_graph(rng: random.Random, max_entities: int = 8) -> SemanticGraph:
    relations = sorted(SPATIAL_VOCABULARY)
    n = rng.randint(2, max_entities)
    entities = [f"e{i}" for i in range(n)]
    graph = SemanticGraph()
    for _ in range(rng.randint(1, 12)):
        a, b = rng.sample(entities, 2)
        relation = rng.choice(relations)
        confidence = round(rng.uniform(0.2, 1.0), 3)
        graph.insert(Fact(a, relation, b, confidence, 0, "perceived"))
    return graph


def all_pairs_contradictions(
    graph: SemanticGraph, exclusion_pairs: list[tuple[str, str]]
) -> list[tuple[Fact, Fact]]:
    """Contradiction pairs by comparing every pair of facts.

    Opposite relations on the same (subject, object), both objects
    strings, plus an oriented relation asserted in both directions; the
    pairs come out in (key, key) order.
    """
    opposites = {frozenset(pair) for pair in exclusion_pairs}
    oriented = {r for pair in exclusion_pairs for r in pair}
    facts = graph.facts()
    found: dict[tuple, tuple[Fact, Fact]] = {}
    index = {f.key(): f for f in facts}
    for fact in facts:
        if not isinstance(fact.obj, str):
            continue
        for other in facts:
            if not isinstance(other.obj, str) or fact.key() >= other.key():
                continue
            same_pair = fact.subject == other.subject and fact.obj == other.obj
            if same_pair and frozenset((fact.relation, other.relation)) in opposites:
                found[(fact.key(), other.key())] = (fact, other)
        if fact.relation in oriented and fact.subject != fact.obj:
            reverse = index.get((fact.obj, fact.relation, fact.subject))
            if reverse is not None and fact.key() < reverse.key():
                found[(fact.key(), reverse.key())] = (fact, reverse)
    return [found[k] for k in sorted(found)]


class SortingWorkingMemory:
    """Working memory that sorts every item to find the one to evict.

    Items are [fact, salience, touched] keyed by the identity
    key, which is formatted here rather than read from Fact.key().
    """

    def __init__(self, capacity: int, decay: float) -> None:
        self.capacity = capacity
        self.decay = decay
        self.items: dict[tuple[str, str, str], list] = {}

    @staticmethod
    def identity(fact: Fact) -> tuple[str, str, str]:
        return (fact.subject, fact.relation, canonical.fmt_literal(fact.obj))

    def insert(self, fact: Fact, salience: float, tick: int) -> None:
        key = self.identity(fact)
        if key in self.items:
            item = self.items[key]
            old = item[0]
            keep = fact if fact.confidence > old.confidence else old
            item[0] = replace(keep, tick=max(old.tick, fact.tick))
            item[1] = max(item[1], salience)
            item[2] = max(item[2], tick)
            return
        self.items[key] = [fact, salience, tick]
        while len(self.items) > self.capacity:
            del self.items[self.ordered(tick)[-1]]

    def rows(self) -> list[tuple]:
        """(fact, type of its object, salience, touched) per item, by key."""
        return [
            (fact, type(fact.obj), salience, touched)
            for fact, salience, touched in (self.items[k] for k in sorted(self.items))
        ]

    def ordered(self, now: int) -> list[tuple[str, str, str]]:
        """Keys best first: decayed salience desc, touched desc, key asc."""

        def rank(key):
            _, salience, touched = self.items[key]
            effective = salience * (self.decay ** max(0, now - touched))
            return (-effective, -touched, key)

        return sorted(self.items, key=rank)
