"""Semantic cognition: aggregate the perceived facts into one picture.

Perception hands over the tick's temporal, spatial and conceptual facts;
`aggregate` inserts them once into the unified graph (identity-keyed,
max-merged). The tick then runs its reasoning on that graph in place
(dependency chaining, concept inference, spatial composition, collision
facts), detects spatial contradictions on the result (reported, never
deleted), and last chains hazard rules spanning at least two dimensions
over it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .kb import Fact, Rule, SemanticGraph, forward_chain


@dataclass
class UnifiedCognition:
    graph: SemanticGraph
    contradictions: list[tuple[Fact, Fact]] = field(default_factory=list)


def aggregate(t: Iterable[Fact], s: Iterable[Fact], c: Iterable[Fact]) -> UnifiedCognition:
    """The unified graph of the three dimensions' facts; no contradictions yet."""
    unified = SemanticGraph()
    for facts in (t, s, c):
        for fact in facts:
            unified.insert(fact)
    return UnifiedCognition(graph=unified)


def detect_contradictions(
    graph: SemanticGraph, exclusion_pairs: list[tuple[str, str]]
) -> list[tuple[Fact, Fact]]:
    """Pairs of co-existing facts that cannot both hold.

    Two patterns, both driven by the exclusion-pair config:

    * opposite relations on the same (subject, object), e.g. both
      LeftOf(a, b) and RightOf(a, b),
    * an oriented relation asserted in both directions, e.g. LeftOf(a, b)
      together with LeftOf(b, a) (antisymmetry violation).

    Detection never deletes anything; the pairs are reported in
    deterministic (key, key) order, whatever the partner sets' order.

    Both patterns are key lookups, not a scan over all pairs: each relation
    maps to its exclusion partners, only the graph's groups of relations
    with partners are walked, and for every string-object fact in them the
    graph is asked for (subject, partner, object) and for the reverse
    (object, relation, subject). An opposite must have a string object
    too: the symbol "5" and the int 5 share a key token but are not the
    same object.
    """
    partners: dict[str, set[str]] = {}
    for a, b in exclusion_pairs:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    index = graph.by_relation()
    found: dict[tuple, tuple[Fact, Fact]] = {}
    for relation, opposites in partners.items():
        for key, fact in index.get(relation, {}).items():
            subject, obj = fact.subject, fact.obj
            if not isinstance(obj, str):
                continue
            for partner in opposites:
                other = graph.lookup((subject, partner, obj))
                if other is not None and isinstance(other.obj, str) and key < other.key():
                    found[(key, other.key())] = (fact, other)
            reverse = graph.lookup((obj, relation, subject))
            if reverse is not None and key < reverse.key():
                found[(key, reverse.key())] = (fact, reverse)
    return [found[k] for k in sorted(found)]


def assess_hazards(
    unified: UnifiedCognition, hazard_rules: list[Rule], max_iterations: int = 100
) -> list[Fact]:
    """Chain hazard rules over the unified graph; returns hazard facts.

    `rulefmt.parse_hazard_rules` has checked where the rules entered that
    each spans at least two cognitive dimensions.
    """
    derived = forward_chain(unified.graph, hazard_rules, max_iterations).derived
    return [f for f in derived if f.relation == "hazard"]
