"""Knowledge representation shared by every cognitive layer.

A Fact is a confidence-weighted subject/relation/object triple with a
timestamp. Facts live in SemanticGraphs (the tick's unified graph, the
semantic LTM, a KB file) and are extended by forward chaining over
Horn-style rules with positive premises and numeric guards. `forward_chain`
is the engine's one derivation engine: the dependency, concept and hazard
rules and the composition table's rules (one per entry) all run on it,
and `match` is its one pattern matcher.

Semantics that everything else relies on:

* identity key = (subject, relation, object token), made once when the
  fact is built; re-assertion max-merges confidence and keeps the latest
  tick, by `merge`; working memory merges by its confidence choice, `prevailing`,
* a graph holds each fact once, in its relation index, which every read
  goes through,
* `Fact.at_tick` is the one way a fact moves to another tick (`merge`,
  and the agent dating a fact at the current tick where the tick records
  it: working memory, the trace row, the planner's hazards): a copy that
  keeps the key, which does not depend on the tick,
* derived confidence = rule weight x product of premise confidences,
* derivation is monotone and its fixpoint is independent of rule and fact
  order (max-merge makes confidence collisions commutative),
* facts are validated where they enter (scenario, KB and LTM lines,
  planner effects), not on insert: what is derived from them is valid,
* a rule is validated where it is built (`Rule.__post_init__`), so
  chaining trusts its rules; a rule whose constants could not make a fact
  (a non-finite number, a number as the conclusion's subject) is refused
  there, and a binding that puts a number in a conclusion's subject is a
  `RuleBindingError`, bad input rather than a crash,
* nothing here depends on insertion order: the relation index keeps it,
  iteration goes group by group, the derived lists are sorted by key and
  queries sort their results.

How chaining matches (cost follows what matches, not what the graph holds):

* each rule compiles its premises once, when it is built, into a join plan:
  every subject and object is a constant, a variable an earlier premise
  bound, a new variable, or the object repeating the subject's new
  variable (`r(?x, ?x)`); `match` runs the same matcher on a one-premise
  plan,
* a premise with a known subject probes a subject bucket and checks a known
  object inline, one with only a known object probes an object bucket, and
  only one with two new variables scans its relation group,
* the buckets split a relation group by subject or by object, each in
  insertion order. One table of them serves every rule of a `forward_chain`
  pass: a bucket is made on its first probe and the table is dropped when
  the pass merges its conclusions, the only time the graph changes,
* the buckets change what a match costs, not what it finds or in which
  order: a bucket is the insertion-ordered part of its group that a scan
  comparing with `==` would accept (dict lookup agrees with `==` on every
  literal a Fact can hold, and a Fact refuses a bool, NaN or infinity
  where it is built), so the matches come in the scan's order. Derived
  confidences multiply in declared premise order, and the pass count,
  which `truncated` reads, does not depend on the buckets either.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import canonical

ORIGINS = ("perceived", "derived", "retrieved", "asserted")

Literal = str | int | float


class ValidationError(ValueError):
    pass


_new = object.__new__


@dataclass(frozen=True, init=False)
class Fact:
    subject: str
    relation: str
    obj: Literal
    confidence: float
    tick: int
    origin: str = "asserted"

    def __init__(
        self,
        subject: str,
        relation: str,
        obj: Literal,
        confidence: float,
        tick: int,
        origin: str = "asserted",
    ) -> None:
        # the six fields and the key go straight into the instance dict, in
        # field order, so every fact shares one key table; the frozen
        # dataclass's own __init__ would call object.__setattr__ for each
        key = (subject, relation, obj if isinstance(obj, str) else canonical.fmt_literal(obj))
        state = self.__dict__
        state["subject"] = subject
        state["relation"] = relation
        state["obj"] = obj
        state["confidence"] = confidence
        state["tick"] = tick
        state["origin"] = origin
        state["_key"] = key

    def key(self) -> tuple[str, str, str]:
        """Identity key, made at construction and kept on the instance.

        A symbol object is its own token, unchecked here (`validate` checks
        it where the fact enters); a number is canonicalized, and any other
        object raises TypeError or ValueError at construction. The key is
        not a dataclass field, so eq, hash and repr ignore it.
        """
        return self._key

    def at_tick(self, tick: int) -> Fact:
        """This fact at `tick`: a copy, equal to `replace(self, tick=tick)`,
        that keeps this fact's key, since the key does not depend on the
        tick. The one way a fact moves to another tick."""
        copy = _new(Fact)
        state = copy.__dict__
        state.update(self.__dict__)
        state["tick"] = tick
        return copy

    def validate(self) -> None:
        if not self.subject:
            raise ValidationError("fact subject must be non-empty")
        if not self.relation:
            raise ValidationError("fact relation must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")
        if self.tick < 0:
            raise ValidationError(f"tick {self.tick} must be >= 0")
        if self.origin not in ORIGINS:
            raise ValidationError(f"unknown origin {self.origin!r}")
        canonical.fmt_literal(self.obj)

    def to_line(self) -> str:
        return "|".join(
            (
                self.subject,
                self.relation,
                canonical.fmt_literal(self.obj),
                canonical.fmt_float(self.confidence),
                str(self.tick),
                self.origin,
            )
        )

    def to_array(self) -> list[object]:
        return [self.subject, self.relation, self.obj, self.confidence, self.tick]


def fact_from_line(line: str) -> Fact:
    parts = line.rstrip("\n").split("|")
    if len(parts) != 6:
        raise ValidationError(f"malformed fact line: {line!r}")
    subject, relation, obj_text, conf_text, tick_text, origin = parts
    try:
        confidence, tick = float(conf_text), int(tick_text)
    except ValueError:
        raise ValidationError(f"non-numeric confidence or tick: {line!r}") from None
    fact = Fact(
        subject=subject,
        relation=relation,
        obj=parse_literal(obj_text),
        confidence=confidence,
        tick=tick,
        origin=origin,
    )
    fact.validate()
    return fact


def parse_literal(token: str) -> Literal:
    """Parse a literal token; numeric-looking tokens become numbers."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def prevailing(held: Fact, incoming: Fact) -> Fact:
    """Of two facts of one identity key, the one whose confidence, origin
    and object their merge keeps, whatever their ticks: the larger
    confidence, the held fact's on a tie. Working memory, which keeps the
    tick apart, merges with this alone."""
    return incoming if incoming.confidence > held.confidence else held


def merge(held: Fact, incoming: Fact) -> Fact:
    """Two facts of one identity key max-merged: the `prevailing` one at
    the larger tick, its choice written out here on the graphs' hot path.
    Returns `held` itself when that changes nothing, else `incoming`
    itself when it already is the merge, else an `at_tick` copy. Objects
    of one key that compare equal are of one type and render alike (`5 !=
    "5"`, and an int's key token never equals a float's)."""
    if incoming.confidence > held.confidence:
        return incoming if incoming.tick >= held.tick else incoming.at_tick(held.tick)
    if incoming.tick <= held.tick:
        return held
    same = incoming.confidence == held.confidence and incoming.origin == held.origin
    return incoming if same and incoming.obj == held.obj else held.at_tick(incoming.tick)


class SemanticGraph:
    """A set of facts keyed by identity, held once in their relation's
    group (`by_relation`) and max-merged on insert by `merge`."""

    def __init__(self) -> None:
        self._by_relation: dict[str, dict[tuple[str, str, str], Fact]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._by_relation.values()))

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        group = self._by_relation.get(key[1])
        return group is not None and key in group

    def __iter__(self):
        """The stored facts group by group, for passes that need no order."""
        for group in self._by_relation.values():
            yield from group.values()

    def get(self, subject: str, relation: str, obj: Literal) -> Fact | None:
        return self.lookup((subject, relation, canonical.fmt_literal(obj)))

    def lookup(self, key: tuple[str, str, str]) -> Fact | None:
        group = self._by_relation.get(key[1])
        return None if group is None else group.get(key)

    def facts(self, keys=None) -> list[Fact]:
        """All facts, or those with the given keys, sorted by identity key."""
        return sorted(self, key=Fact.key) if keys is None else [self.lookup(k) for k in sorted(keys)]

    def insert(self, fact: Fact) -> bool:
        """Insert with `merge` on identity collision; True if the graph
        changed. A replaced fact keeps its slot in its group. The fact is
        not validated here: see the module docstring.
        """
        key = fact.key()
        group = self._by_relation.get(fact.relation)
        if group is None:
            group = self._by_relation[fact.relation] = {}
        held = group.get(key)
        merged = fact if held is None else merge(held, fact)
        if merged is held:
            return False
        group[key] = merged
        return True

    def by_relation(self) -> dict[str, dict[tuple[str, str, str], Fact]]:
        """The stored facts grouped by relation and keyed by identity, each
        group in insertion order.

        This is the graph's one store, kept by `insert`: read it, do not
        change it, and do not insert while iterating over it.
        """
        return self._by_relation

    def to_lines(self) -> list[str]:
        return [f.to_line() for f in self.facts()]


def graph_from_lines(lines: list[str]) -> SemanticGraph:
    graph = SemanticGraph()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        graph.insert(fact_from_line(line))
    return graph


# ---------------------------------------------------------------------------
# rules

def is_var(term: object) -> bool:
    return isinstance(term, str) and term.startswith("?")


@dataclass(frozen=True)
class Atom:
    """relation(subject, object); terms may be ?variables or constants.

    `dim` is an optional dimension annotation used only when rule files are
    validated (hazard rules must span two dimensions); matching ignores it.
    """

    relation: str
    subject: Literal
    obj: Literal
    dim: str | None = None

    def variables(self) -> set[str]:
        out = set()
        if is_var(self.subject):
            out.add(self.subject)
        if is_var(self.obj):
            out.add(self.obj)
        return out

    def check_constants(self) -> None:
        """Each constant term must be a literal a fact can hold, and a
        constant subject a symbol, as every fact's subject is."""
        for term in (self.subject, self.obj):
            if not is_var(term):
                try:
                    canonical.fmt_literal(term)
                except (TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"constant {term!r} in {self.relation} is not a fact literal ({exc})"
                    ) from None
        if not isinstance(self.subject, str):
            raise ValidationError(f"subject {self.subject!r} in {self.relation} is not a symbol")

    def __str__(self) -> str:
        subject = self.subject if isinstance(self.subject, str) else canonical.fmt_literal(self.subject)
        obj = self.obj if isinstance(self.obj, str) else canonical.fmt_literal(self.obj)
        return f"{self.relation}({subject}, {obj})"


_GUARD_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Guard:
    left: Literal
    op: str
    right: Literal

    def variables(self) -> set[str]:
        out = set()
        if is_var(self.left):
            out.add(self.left)
        if is_var(self.right):
            out.add(self.right)
        return out

    def holds(self, binding: dict[str, Literal]) -> bool:
        left = binding.get(self.left, self.left) if is_var(self.left) else self.left
        right = binding.get(self.right, self.right) if is_var(self.right) else self.right
        if self.op in ("==", "!="):
            return _GUARD_OPS[self.op](left, right)
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        return _GUARD_OPS[self.op](left, right)


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Atom, ...]
    conclusion: Atom
    weight: float = 1.0
    guards: tuple[Guard, ...] = ()

    def __post_init__(self) -> None:
        self.validate()
        # compiled once, and not fields, so eq, hash and repr ignore them: the
        # premises' join plan, and the conclusion as (relation, subject term,
        # subject is a variable, object term, object is a variable)
        head = self.conclusion
        object.__setattr__(self, "_plan", _compile(self.premises))
        object.__setattr__(
            self, "_head", (head.relation, head.subject, is_var(head.subject), head.obj, is_var(head.obj))
        )

    def validate(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(f"rule {self.name}: weight must be in (0, 1]")
        if not self.premises:
            raise ValidationError(f"rule {self.name}: needs at least one premise")
        for atom in (*self.premises, self.conclusion):
            try:
                atom.check_constants()
            except ValidationError as exc:
                raise ValidationError(f"rule {self.name}: {exc}") from None
        bound = set()
        for premise in self.premises:
            bound |= premise.variables()
        free = self.conclusion.variables() - bound
        if free:
            raise ValidationError(
                f"rule {self.name}: conclusion variables {sorted(free)} not bound "
                "by any premise (rule must be range-restricted)"
            )
        for guard in self.guards:
            loose = guard.variables() - bound
            if loose:
                raise ValidationError(
                    f"rule {self.name}: guard variables {sorted(loose)} unbound"
                )

    def dimensions(self) -> set[str]:
        return {p.dim for p in self.premises if p.dim is not None}


class RuleBindingError(canonical.InputError, ValidationError):
    """A rule bound its conclusion's subject to a non-symbol: the facts it
    matched (a scenario's, a KB's) cannot make the fact it concludes."""


# How a compiled premise finds a term's value: a constant, a variable an
# earlier premise bound, a new variable, or (object only) the subject's new
# variable repeated, as in r(?x, ?x).
_CONST, _BOUND, _NEW, _SAME = range(4)

_Step = tuple[str, int, Literal, int, Literal]


def _compile(premises: tuple[Atom, ...]) -> tuple[_Step, ...]:
    """The join plan of `premises`: each premise, in declared order, as
    (relation, subject kind, subject term, object kind, object term), where
    a term is the atom's own constant or variable name."""
    bound: set[str] = set()
    plan = []
    for atom in premises:
        subject, obj = atom.subject, atom.obj
        s_kind = _CONST if not is_var(subject) else _BOUND if subject in bound else _NEW
        if s_kind == _NEW and obj == subject:
            o_kind = _SAME
        else:
            o_kind = _CONST if not is_var(obj) else _BOUND if obj in bound else _NEW
        bound |= atom.variables()
        plan.append((atom.relation, s_kind, subject, o_kind, obj))
    return tuple(plan)


def _split(
    buckets: dict[tuple[str, int], dict[Literal, list[Fact]]],
    relation: str,
    position: int,
    group: dict[tuple[str, str, str], Fact],
) -> dict[Literal, list[Fact]]:
    """`group`'s facts by subject (position 0) or object (1), each bucket in
    insertion order; made on the first probe and kept in `buckets`."""
    table = buckets.get((relation, position))
    if table is None:
        table = buckets[relation, position] = {}
        for fact in group.values():
            value = fact.obj if position else fact.subject
            facts = table.get(value)
            if facts is None:
                table[value] = [fact]
            else:
                facts.append(fact)
    return table


def _match_premises(
    plan: tuple[_Step, ...],
    index: dict[str, dict[tuple[str, str, str], Fact]],
    buckets: dict[tuple[str, int], dict[Literal, list[Fact]]],
) -> list[tuple[dict[str, Literal], tuple[Fact, ...]]]:
    """Every binding of the plan's premises to the facts of `index` (a
    graph's relation index), with the facts each premise used, in a nested
    loop's order: premises in declared order, each relation group in
    insertion order, which the buckets keep (see the module docstring).
    `buckets` is the bucket table of the graph as it stands: drop it when
    the graph changes."""
    results: list[tuple[dict[str, Literal], tuple[Fact, ...]]] = [({}, ())]
    for relation, s_kind, s_term, o_kind, o_term in plan:
        group = index.get(relation)
        if not group:
            return []
        found = []
        add = found.append
        if s_kind != _NEW:
            by_subject = _split(buckets, relation, 0, group)
            for binding, used in results:
                facts = by_subject.get(binding[s_term] if s_kind == _BOUND else s_term)
                if facts is None:
                    continue
                if o_kind == _NEW:
                    for fact in facts:
                        extended = binding.copy()
                        extended[o_term] = fact.obj
                        add((extended, used + (fact,)))
                else:
                    value = binding[o_term] if o_kind == _BOUND else o_term
                    for fact in facts:
                        if fact.obj == value:
                            add((binding, used + (fact,)))
        elif o_kind in (_CONST, _BOUND):
            by_object = _split(buckets, relation, 1, group)
            for binding, used in results:
                facts = by_object.get(binding[o_term] if o_kind == _BOUND else o_term)
                if facts is None:
                    continue
                for fact in facts:
                    extended = binding.copy()
                    extended[s_term] = fact.subject
                    add((extended, used + (fact,)))
        else:
            same = o_kind == _SAME
            for binding, used in results:
                for fact in group.values():
                    if same and fact.obj != fact.subject:
                        continue
                    extended = binding.copy()
                    extended[s_term] = fact.subject
                    if not same:
                        extended[o_term] = fact.obj
                    add((extended, used + (fact,)))
        results = found
        if not results:
            break
    return results


@dataclass
class ChainResult:
    derived: list[Fact]
    truncated: bool = False
    iterations: int = 0


def forward_chain(
    graph: SemanticGraph, rules: list[Rule], max_iterations: int = 100
) -> ChainResult:
    """Extend `graph` to a fixpoint under `rules` (in place).

    Each pass evaluates every rule against a snapshot of the current facts
    and merges all conclusions at the end of the pass, which makes the
    result independent of rule order and fact insertion order. Returns
    the facts whose keys are new, sorted by key. When the last allowed
    pass changed the graph, one more pass is evaluated, not merged: the
    result is `truncated` only if merging it would change the graph.
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    new_keys: set[tuple[str, str, str]] = set()
    truncated = False
    iterations = 0
    index = graph.by_relation()  # live: each pass reads the facts as they stand
    for _ in range(max_iterations):
        iterations += 1
        changed = False
        for fact in _conclusions(rules, index):
            if fact.key() not in graph:
                new_keys.add(fact.key())
            if graph.insert(fact):
                changed = True
        if not changed:
            break
    else:
        for fact in _conclusions(rules, index):
            held = graph.lookup(fact.key())
            if held is None or merge(held, fact) is not held:
                truncated = True
                break
    return ChainResult(graph.facts(new_keys), truncated=truncated, iterations=iterations)


def _conclusions(
    rules: list[Rule], index: dict[str, dict[tuple[str, str, str], Fact]]
) -> list[Fact]:
    """One pass's conclusions: every firing of every rule on the facts of
    `index` (a graph's relation index) as they stand, in rule order."""
    # the pass's buckets, shared by its rules: the graph changes only when
    # the pass's conclusions are merged, after this returns
    buckets: dict[tuple[str, int], dict[Literal, list[Fact]]] = {}
    fresh: list[Fact] = []
    for rule in rules:
        relation, subject_term, s_var, obj_term, o_var = rule._head
        guards = rule.guards
        for binding, used in _match_premises(rule._plan, index, buckets):
            if guards and not all(g.holds(binding) for g in guards):
                continue
            subject = binding[subject_term] if s_var else subject_term
            if not isinstance(subject, str):
                raise RuleBindingError(
                    f"rule {rule.name}: conclusion subject {subject_term} "
                    f"bound to non-symbol {subject!r}"
                )
            confidence = rule.weight
            tick = 0
            for fact in used:
                confidence *= fact.confidence
                tick = max(tick, fact.tick)
            fresh.append(
                Fact(
                    subject,
                    relation,
                    binding[obj_term] if o_var else obj_term,
                    confidence,
                    tick,
                    "derived",
                )
            )
    return fresh


def match(graph: SemanticGraph, atom: Atom) -> list[tuple[dict[str, Literal], Fact]]:
    """Each fact that `atom` matches, with the binding; in insertion order."""
    plan = _compile((atom,))
    return [(binding, used[0]) for binding, used in _match_premises(plan, graph.by_relation(), {})]


def query(graph: SemanticGraph, pattern: Atom) -> list[dict[str, Literal]]:
    """All bindings satisfying `pattern`, sorted by their bound values."""
    bindings = [b for b, _ in match(graph, pattern)]
    order = [t for t in (pattern.subject, pattern.obj) if is_var(t)]
    seen: set[tuple[str, ...]] = set()
    unique: list[dict[str, Literal]] = []
    for binding in bindings:
        sig = tuple(canonical.fmt_literal(binding[v]) for v in order)
        if sig not in seen:
            seen.add(sig)
            unique.append(binding)
    unique.sort(key=lambda b: tuple(canonical.fmt_literal(b[v]) for v in order))
    return unique
