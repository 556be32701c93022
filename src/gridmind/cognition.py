"""Semantic cognition: aggregate the dimension graphs into one picture.

The unified graph is the identity-keyed union (max-merge) of the temporal,
spatial, and conceptual graphs, built once per tick. The tick then runs
its reasoning on that graph in place (dependency chaining, concept
inference, spatial composition, collision facts), detects spatial
contradictions on the result (reported, never deleted), and last chains
hazard rules spanning at least two dimensions over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kb import Fact, Rule, SemanticGraph, ValidationError, forward_chain


@dataclass
class UnifiedCognition:
    graph: SemanticGraph
    contradictions: list[tuple[Fact, Fact]] = field(default_factory=list)


def aggregate(t: SemanticGraph, s: SemanticGraph, c: SemanticGraph) -> UnifiedCognition:
    """Union the three dimension graphs; contradictions are left empty."""
    expected = (("temporal", t), ("spatial", s), ("conceptual", c))
    for dimension, graph in expected:
        if graph.dimension != dimension:
            raise ValidationError(
                f"aggregate expects a {dimension} graph, got {graph.dimension}"
            )
    unified = SemanticGraph("unified")
    for _, graph in expected:
        unified.merge(graph)
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
    deterministic (key, key) order.

    Both patterns are key lookups, not a scan over all pairs: each relation
    maps to its exclusion partners, and for every string-object fact whose
    relation has partners the key index is asked for (subject, partner,
    object) and for the reverse (object, relation, subject). An opposite
    must have a string object too: the symbol "5" and the int 5 share a
    key token but are not the same object.
    """
    partners: dict[str, set[str]] = {}
    for a, b in exclusion_pairs:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    index = {f.key(): f for f in graph.facts()}
    found: dict[tuple, tuple[Fact, Fact]] = {}
    for key, fact in index.items():
        subject, relation, obj = fact.subject, fact.relation, fact.obj
        if not isinstance(obj, str) or relation not in partners:
            continue
        for partner in partners[relation]:
            other = index.get((subject, partner, obj))
            if other is not None and isinstance(other.obj, str) and key < other.key():
                found[(key, other.key())] = (fact, other)
        reverse = index.get((obj, relation, subject))
        if reverse is not None and key < reverse.key():
            found[(key, reverse.key())] = (fact, reverse)
    return [found[k] for k in sorted(found)]


def assess_hazards(
    unified: UnifiedCognition, hazard_rules: list[Rule], max_iterations: int = 100
) -> list[Fact]:
    """Chain hazard rules over the unified graph; returns hazard facts.

    Rules must span at least two cognitive dimensions (the rule loader
    enforces this; it is re-checked here so hand-built rules cannot slip
    through).
    """
    for rule in hazard_rules:
        if len(rule.dimensions()) < 2:
            raise ValidationError(
                f"hazard rule {rule.name} touches only {sorted(rule.dimensions())}"
            )
    derived = forward_chain(unified.graph, hazard_rules, max_iterations).derived
    return [f for f in derived if f.relation == "hazard"]
