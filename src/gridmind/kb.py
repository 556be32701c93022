"""Knowledge representation shared by every cognitive layer.

A Fact is a confidence-weighted subject/relation/object triple with a
timestamp. Facts live in typed SemanticGraphs (one per cognitive dimension
plus a unified one) and are extended by forward chaining over Horn-style
rules with positive premises and numeric guards.

Semantics that everything else relies on:

* identity key = (subject, relation, object); re-assertion max-merges
  confidence and keeps the latest tick,
* derived confidence = rule weight x product of premise confidences,
* derivation is monotone and its fixpoint is independent of rule and fact
  order (max-merge makes confidence collisions commutative).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import canonical

ORIGINS = ("perceived", "derived", "retrieved", "asserted")
DIMENSIONS = ("temporal", "spatial", "conceptual", "unified")

# Relations whose object is a plain literal (symbol or number), never an
# entity reference. Objects of any other relation are registered in the
# graph's entity set.
LITERAL_OBJECT_RELATIONS = frozenset(
    {
        "isa",
        "has_state",
        "has_function",
        "has_role",
        "affords",
        "at",
        "located_in",
        "color",
        "size",
        "material",
        "shape",
        "wears",
        "hazard",
    }
)

Literal = str | int | float


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Fact:
    subject: str
    relation: str
    obj: Literal
    confidence: float
    tick: int
    origin: str = "asserted"

    def key(self) -> tuple[str, str, str]:
        """Identity key, computed on first use and kept on the instance.

        The cache is not a dataclass field, so eq, hash, repr and
        `replace` ignore it; a copy made by `replace` computes its own.
        """
        try:
            return self._key
        except AttributeError:
            key = (self.subject, self.relation, canonical.fmt_literal(self.obj))
            object.__setattr__(self, "_key", key)
            return key

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
        return [
            self.subject,
            self.relation,
            self.obj,
            round(self.confidence, canonical.FLOAT_DECIMALS),
            self.tick,
        ]


def fact_from_line(line: str) -> Fact:
    parts = line.rstrip("\n").split("|")
    if len(parts) != 6:
        raise ValidationError(f"malformed fact line: {line!r}")
    subject, relation, obj_text, conf_text, tick_text, origin = parts
    fact = Fact(
        subject=subject,
        relation=relation,
        obj=parse_literal(obj_text),
        confidence=float(conf_text),
        tick=int(tick_text),
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


class SemanticGraph:
    """A typed set of facts plus the entities they mention."""

    def __init__(self, dimension: str = "unified") -> None:
        if dimension not in DIMENSIONS:
            raise ValidationError(f"unknown graph dimension {dimension!r}")
        self.dimension = dimension
        self._facts: dict[tuple[str, str, str], Fact] = {}
        self.entities: set[str] = set()

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._facts

    def get(self, subject: str, relation: str, obj: Literal) -> Fact | None:
        return self._facts.get((subject, relation, canonical.fmt_literal(obj)))

    def facts(self) -> list[Fact]:
        """All facts sorted by identity key (deterministic)."""
        return [self._facts[k] for k in sorted(self._facts)]

    def insert(self, fact: Fact) -> Fact:
        """Insert with max-merge on identity collision; returns stored fact.

        On collision the stored fact keeps the higher confidence (the new
        origin wins only on a strict confidence increase) and the latest
        tick.
        """
        fact.validate()
        key = fact.key()
        old = self._facts.get(key)
        if old is None:
            stored = fact
        else:
            tick = max(old.tick, fact.tick)
            if fact.confidence > old.confidence:
                stored = replace(fact, tick=tick)
            else:
                stored = replace(old, tick=tick)
        self._facts[key] = stored
        self.entities.add(fact.subject)
        if fact.relation not in LITERAL_OBJECT_RELATIONS and isinstance(fact.obj, str):
            self.entities.add(fact.obj)
        return stored

    def insert_improves(self, fact: Fact) -> bool:
        """Insert and report whether the graph actually changed."""
        key = fact.key()
        old = self._facts.get(key)
        self.insert(fact)
        new = self._facts[key]
        return old is None or new.confidence > old.confidence or new.tick > old.tick

    def merge(self, other: "SemanticGraph") -> None:
        for fact in other.facts():
            self.insert(fact)

    def by_relation(self) -> dict[str, list[Fact]]:
        index: dict[str, list[Fact]] = {}
        for key in sorted(self._facts):
            fact = self._facts[key]
            index.setdefault(fact.relation, []).append(fact)
        return index

    def to_lines(self) -> list[str]:
        return [f.to_line() for f in self.facts()]


def graph_from_lines(lines: list[str], dimension: str = "unified") -> SemanticGraph:
    graph = SemanticGraph(dimension)
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

    def validate(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(f"rule {self.name}: weight must be in (0, 1]")
        if not self.premises:
            raise ValidationError(f"rule {self.name}: needs at least one premise")
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


def _unify(atom: Atom, fact: Fact, binding: dict[str, Literal]) -> dict[str, Literal] | None:
    if atom.relation != fact.relation:
        return None
    out = dict(binding)
    for term, value in ((atom.subject, fact.subject), (atom.obj, fact.obj)):
        if is_var(term):
            if term in out:
                if out[term] != value:
                    return None
            else:
                out[term] = value
        elif term != value:
            return None
    return out


def _match_premises(
    premises: tuple[Atom, ...], index: dict[str, list[Fact]]
) -> list[tuple[dict[str, Literal], list[Fact]]]:
    results: list[tuple[dict[str, Literal], list[Fact]]] = [({}, [])]
    for premise in premises:
        candidates = index.get(premise.relation, [])
        next_results = []
        for binding, used in results:
            for fact in candidates:
                extended = _unify(premise, fact, binding)
                if extended is not None:
                    next_results.append((extended, used + [fact]))
        results = next_results
        if not results:
            break
    return results


def _instantiate(atom: Atom, binding: dict[str, Literal]) -> tuple[str, Literal]:
    subject = binding[atom.subject] if is_var(atom.subject) else atom.subject
    obj = binding[atom.obj] if is_var(atom.obj) else atom.obj
    if not isinstance(subject, str):
        raise ValidationError(f"conclusion subject bound to non-symbol: {subject!r}")
    return subject, obj


@dataclass
class ChainResult:
    graph: SemanticGraph
    derived: list[Fact]
    truncated: bool = False
    iterations: int = 0


def forward_chain(
    graph: SemanticGraph, rules: list[Rule], max_iterations: int = 100
) -> ChainResult:
    """Extend `graph` to a fixpoint under `rules` (in place).

    Each pass evaluates every rule against a snapshot of the current facts
    and merges all conclusions at the end of the pass, which makes the
    result independent of rule order and fact insertion order.
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    for rule in rules:
        rule.validate()
    before = {f.key() for f in graph.facts()}
    truncated = False
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        index = graph.by_relation()
        fresh: list[Fact] = []
        for rule in rules:
            for binding, used in _match_premises(rule.premises, index):
                if not all(g.holds(binding) for g in rule.guards):
                    continue
                subject, obj = _instantiate(rule.conclusion, binding)
                confidence = rule.weight
                tick = 0
                for fact in used:
                    confidence *= fact.confidence
                    tick = max(tick, fact.tick)
                fresh.append(
                    Fact(subject, rule.conclusion.relation, obj, confidence, tick, "derived")
                )
        changed = False
        for fact in fresh:
            if graph.insert_improves(fact):
                changed = True
        if not changed:
            break
    else:
        truncated = True
    derived = [f for f in graph.facts() if f.key() not in before]
    return ChainResult(graph=graph, derived=derived, truncated=truncated, iterations=iterations)


def query(graph: SemanticGraph, pattern: Atom) -> list[dict[str, Literal]]:
    """All bindings satisfying `pattern`, sorted by their bound values."""
    index = graph.by_relation()
    bindings = [b for b, _ in _match_premises((pattern,), index)]
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
