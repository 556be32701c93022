"""Independent brute-force oracles the engine is checked against.

Each oracle is deliberately written in the most obvious way possible and
shares no code path with the engine implementation it validates.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring

from gridmind import canonical
from gridmind.kb import Fact, SemanticGraph
from gridmind.perceive import (
    SALIENCE_ADJACENT,
    SALIENCE_DEFAULT,
    SALIENCE_MOVING,
    SALIENCE_STATE_FLAG,
    SALIENCE_TASK,
    STATE_SALIENCE_FLAGS,
)
from gridmind.reason import Trajectory, detect_collision

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


def _is_var(term) -> bool:
    return isinstance(term, str) and term.startswith("?")


def reference_unify(atom, fact, binding):
    """`binding` extended to match `fact` (whose relation is the atom's), or
    None; it is copied only when a variable gets bound, and never changed."""
    out = binding
    for term, value in ((atom.subject, fact.subject), (atom.obj, fact.obj)):
        if not _is_var(term):
            if term != value:
                return None
        elif term in out:
            if out[term] != value:
                return None
        else:
            if out is binding:
                out = dict(binding)
            out[term] = value
    return out


def reference_match_premises(premises, index):
    """Every binding of `premises` to the facts of `index` (a graph's
    relation index), with the facts used: a nested loop over the premises
    in declared order and each relation group in insertion order, trying
    every fact of the group. The reference for `kb._match_premises`."""
    results = [({}, [])]
    for premise in premises:
        group = index.get(premise.relation)
        candidates = group.values() if group else ()
        next_results = []
        for binding, used in results:
            for fact in candidates:
                extended = reference_unify(premise, fact, binding)
                if extended is not None:
                    next_results.append((extended, used + [fact]))
        results = next_results
        if not results:
            break
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


def reference_predict_trajectory(entity, tick, previous, current, horizon, bounds) -> Trajectory:
    """Constant-velocity extrapolation in floats from the cells at ticks
    `tick - 1` and `tick`: each step's cell is the extrapolated point
    rounded half up, `floor(x + vx * step + 0.5)`, clamped to the grid, up
    to step max(width, height) of the horizon."""
    width, height = bounds
    x1, y1 = current
    vx, vy = float(x1 - previous[0]), float(y1 - previous[1])
    positions = {}
    for step in range(1, min(horizon, max(width, height)) + 1):
        cx = min(max(math.floor(x1 + vx * step + 0.5), 0), width - 1)
        cy = min(max(math.floor(y1 + vy * step + 0.5), 0), height - 1)
        positions[tick + step] = (cx, cy)
    return Trajectory(entity, positions)


def all_pairs_collision_facts(trajectories, epsilon: float, tick: int) -> list[Fact]:
    """CollisionRisk(a, b) for every pair of trajectories, a before b by
    name, that `detect_collision` flags: each pair is tested."""
    names = sorted(trajectories)
    return [
        Fact(a, "CollisionRisk", b, 1.0, tick, "derived")
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if detect_collision(trajectories[a], trajectories[b], epsilon)
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


def attention_score(
    presence: dict[str, bool], salience: dict[str, float], weights: dict[str, float]
) -> float:
    """score = sum over dimensions of weight * presence * salience."""
    total = 0.0
    for dim in ("temporal", "spatial", "conceptual"):
        if presence.get(dim):
            total += weights[dim] * salience.get(dim, 0.0)
    return total


def bind_reference(ft, fs, fc, weights, task_refs=frozenset(), threshold=0.25):
    """(entity, score, below_threshold) per entity, score descending then
    entity id ascending, from a presence dict and a salience dict per
    entity scored by `attention_score`: the binding the engine computes
    without building either dict."""
    rows = []
    for entity in sorted(set(ft.by_entity()) | set(fs.locations) | set(fc)):
        events = ft.by_entity().get(entity, [])
        open_events = [e for e in events if not e.closed]
        record = fc.get(entity)
        ego = fs.locations.get(entity)
        presence = {
            "temporal": bool(events),
            "spatial": ego is not None,
            "conceptual": record is not None,
        }
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
        if entity in task_refs or entity == fs.agent:
            salience = {d: max(s, SALIENCE_TASK) for d, s in salience.items()}
        score = attention_score(presence, salience, weights)
        rows.append((entity, score, score < threshold))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


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


def reference_graph_merge(held: Fact, incoming: Fact) -> Fact:
    """The semantic graph's max-merge as it was written before `kb.merge`:
    a strict confidence increase takes the incoming fact at the later
    tick, else a later tick moves the held fact to it, else the held fact
    stays as it is and is returned."""
    if incoming.confidence > held.confidence:
        return replace(incoming, tick=max(held.tick, incoming.tick))
    if incoming.tick > held.tick:
        return replace(held, tick=incoming.tick)
    return held


def reference_wm_merge(held: Fact, incoming: Fact) -> Fact:
    """Working memory's max-merge as it was written before `kb.merge`: the
    incoming fact as it is when it is no older and more confident, or as
    confident with the same origin and object; else the more confident
    fact (the held one on a tie) at the later tick."""
    if incoming.tick >= held.tick and (
        incoming.confidence > held.confidence
        or incoming.confidence == held.confidence
        and incoming.origin == held.origin
        and incoming.obj == held.obj
    ):
        return incoming
    keep = incoming if incoming.confidence > held.confidence else held
    return replace(keep, tick=max(held.tick, incoming.tick))


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


def reference_regulate(anomalies, weights, config):
    """The regulation policy with an explicit (kind, parameters) key per
    directive and a seen set, as it was written before directives compared
    by value. Returns each surviving directive as (record, cause), and the
    re-weighted attention, projected back onto the clamped simplex by the
    same alternating rescale-and-clamp."""

    def pattern_from_payload(payload):
        parts = payload[0].split("|")
        return (parts[1], parts[0], "?x")

    directives = []
    seen = set()

    def add(kind, cause, dimension=None, delta=None, factor=None, pattern=None):
        key = (kind, dimension, delta, factor, pattern)
        if key not in seen:
            seen.add(key)
            directives.append((key, cause))

    for anomaly in anomalies:
        if anomaly.kind == "PredictionMismatch":
            add("DecayPredictionConfidence", anomaly, factor=config.prediction_decay)
            add("ReweightAttention", anomaly, dimension="temporal", delta=config.reweight_delta)
        elif anomaly.kind == "Contradiction":
            add("RetrieveFromLTM", anomaly, pattern=pattern_from_payload(anomaly.payload))
            add("ReweightAttention", anomaly, dimension="spatial", delta=config.reweight_delta)
        elif anomaly.kind == "ActionFailure":
            add("TriggerReplan", anomaly)
        elif anomaly.kind == "TemporalCycle":
            add("TriggerReplan", anomaly)
        elif anomaly.kind == "StaleWorkingMemory":
            add("RetrieveFromLTM", anomaly, pattern=pattern_from_payload(anomaly.payload))

    new_weights = dict(weights)
    for (kind, dimension, delta, _, _), _ in directives:
        if kind == "ReweightAttention" and dimension:
            new_weights[dimension] = new_weights.get(dimension, 0.0) + (delta or 0.0)
    dims = ("temporal", "spatial", "conceptual")
    low, high = config.weight_min, config.weight_max
    values = {d: min(high, max(low, float(new_weights.get(d, low)))) for d in dims}
    for _ in range(200):
        total = sum(values[d] for d in dims)
        if abs(total - 1.0) <= 1e-12:
            break
        values = {d: values[d] / total for d in dims}
        values = {d: min(high, max(low, values[d])) for d in dims}

    out = []
    for (kind, dimension, delta, factor, pattern), cause in directives:
        record = {"kind": kind, "cause": cause.kind}
        if dimension is not None:
            record["dimension"] = dimension
        if delta is not None:
            record["delta"] = delta
        if factor is not None:
            record["factor"] = factor
        if pattern is not None:
            record["pattern"] = list(pattern)
        out.append((record, cause))
    return out, values


def reference_dumps(value: object) -> str:
    """`canonical.dumps` as first written: one recursive call per value,
    types tested in a fixed `isinstance` order."""
    parts: list[str] = []
    _reference_emit(value, parts)
    return "".join(parts)


def _reference_emit(value: object, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        out.append(canonical.fmt_float(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _reference_emit(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__}")
