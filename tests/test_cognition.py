"""Unified cognition: aggregation, contradictions, hazards."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.cognition import aggregate, assess_hazards, detect_contradictions
from gridmind.kb import Fact, SemanticGraph, ValidationError
from gridmind.reason import SPATIAL_VOCABULARY
from gridmind.rulefmt import parse_hazard_rules
from oracles import all_pairs_contradictions


def graph(dimension, *triples):
    g = SemanticGraph(dimension)
    for s, r, o, *rest in triples:
        conf = rest[0] if rest else 1.0
        g.insert(Fact(s, r, o, conf, 0, "perceived"))
    return g


class TestAggregate:
    def test_disjoint_union_keeps_every_fact(self):
        t = graph("temporal", ("a", "has_state", "moving"), ("b", "has_state", "moving"))
        s = graph("spatial", ("a", "Near", "b"), ("b", "Near", "c"), ("a", "at", "0,0"))
        c = graph(
            "conceptual",
            ("a", "isa", "cat"), ("b", "isa", "dog"), ("c", "isa", "rug"), ("d", "isa", "toy"),
        )
        unified = aggregate(t, s, c)
        assert len(unified.graph) == 9
        assert unified.graph.entities >= {"a", "b", "c", "d"}

    def test_same_triple_max_merges_confidence(self):
        s = graph("spatial", ("a", "Near", "b", 0.6))
        c = graph("conceptual", ("a", "Near", "b", 0.8))
        unified = aggregate(SemanticGraph("temporal"), s, c)
        assert unified.graph.get("a", "Near", "b").confidence == 0.8

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError):
            aggregate(SemanticGraph("spatial"), SemanticGraph("spatial"), SemanticGraph("conceptual"))

    def test_aggregate_twice_is_fixpoint(self, rule_data):
        t = graph("temporal", ("k", "has_state", "moving"))
        s = graph("spatial", ("w", "Near", "e"))
        c = graph("conceptual", ("w", "has_state", "wet"), ("e", "has_state", "powered"))
        once = aggregate(t, s, c, exclusion_pairs=rule_data.exclusions)
        rebuilt_t = SemanticGraph("temporal")
        rebuilt_s = SemanticGraph("spatial")
        rebuilt_c = SemanticGraph("conceptual")
        for fact in once.graph.facts():
            rebuilt_c.insert(fact)
        twice = aggregate(rebuilt_t, rebuilt_s, rebuilt_c, exclusion_pairs=rule_data.exclusions)
        assert twice.graph.to_lines() == once.graph.to_lines()


class TestContradictions:
    def test_opposite_relations_on_same_pair(self, rule_data):
        g = graph("unified", ("a", "LeftOf", "b"), ("a", "RightOf", "b"))
        found = detect_contradictions(g, rule_data.exclusions)
        assert len(found) == 1

    def test_single_fact_is_consistent(self, rule_data):
        g = graph("unified", ("a", "LeftOf", "b"))
        assert detect_contradictions(g, rule_data.exclusions) == []

    def test_antisymmetry_violation(self, rule_data):
        g = graph("unified", ("a", "LeftOf", "b"), ("b", "LeftOf", "a"))
        found = detect_contradictions(g, rule_data.exclusions)
        assert len(found) == 1

    def test_converse_assertions_are_consistent(self, rule_data):
        # LeftOf(a, b) together with RightOf(b, a) is the expected converse
        g = graph("unified", ("a", "LeftOf", "b"), ("b", "RightOf", "a"))
        assert detect_contradictions(g, rule_data.exclusions) == []

    def test_detection_never_deletes(self, rule_data):
        g = graph("unified", ("a", "LeftOf", "b"), ("a", "RightOf", "b"))
        detect_contradictions(g, rule_data.exclusions)
        assert len(g) == 2

    def test_symbol_and_number_with_one_key_token_are_not_opposites(self, rule_data):
        g = graph("unified", ("a", "LeftOf", "5"), ("a", "RightOf", 5))
        assert detect_contradictions(g, rule_data.exclusions) == []


RELATIONS = sorted(SPATIAL_VOCABULARY)
# "5" and 5 share the key token "5", "5.000000" and 5.0 share theirs
SUBJECTS = ["a", "b", "c", "5"]
OBJECTS = SUBJECTS + [5, 5.0, "5.000000", 7]


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(RELATIONS), st.sampled_from(OBJECTS)),
        max_size=30,
    ),
    exclusions=st.lists(
        st.tuples(st.sampled_from(RELATIONS), st.sampled_from(RELATIONS)), max_size=6
    ),
)
def test_indexed_detector_matches_all_pairs_oracle(triples, exclusions):
    g = graph("unified", *triples)
    assert detect_contradictions(g, exclusions) == all_pairs_contradictions(g, exclusions)


HOT_COFFEE_T = (("child1", "has_state", "moving"),)
HOT_COFFEE_S = (
    ("coffee1", "Near", "edge1"),
    ("child1", "Near", "table1"),
)
HOT_COFFEE_C = (
    ("coffee1", "has_state", "hot"),
    ("edge1", "isa", "table_edge"),
    ("table1", "isa", "table"),
    ("child1", "isa", "child"),
)


class TestHazards:
    def test_hot_coffee_near_edge_with_moving_child(self, rule_data):
        unified = aggregate(
            graph("temporal", *HOT_COFFEE_T),
            graph("spatial", *HOT_COFFEE_S),
            graph("conceptual", *HOT_COFFEE_C),
        )
        hazards = assess_hazards(unified, rule_data.hazard_rules)
        assert [(f.subject, f.obj) for f in hazards] == [("coffee1", "spill_burn")]
        assert hazards[0].confidence == pytest.approx(0.9)

    def test_wet_near_powered_wire(self, rule_data):
        unified = aggregate(
            SemanticGraph("temporal"),
            graph("spatial", ("water1", "Near", "wire1")),
            graph(
                "conceptual",
                ("water1", "has_state", "wet"),
                ("wire1", "has_state", "powered"),
            ),
        )
        hazards = assess_hazards(unified, rule_data.hazard_rules)
        assert [(f.subject, f.obj) for f in hazards] == [("wire1", "electrocution")]

    def test_cold_coffee_no_children_no_hazard(self, rule_data):
        unified = aggregate(
            SemanticGraph("temporal"),
            graph("spatial", ("coffee1", "Near", "edge1")),
            graph("conceptual", ("edge1", "isa", "table_edge")),
        )
        assert assess_hazards(unified, rule_data.hazard_rules) == []

    def test_single_dimension_rule_rejected(self):
        rules = parse_hazard_rules(
            "rule ok 1.0: has_state(?x, wet)@C, Near(?x, ?y)@S -> hazard(?x, slip)"
        )
        # force the tag set down to one dimension to hit the re-check
        from dataclasses import replace

        flat = [
            replace(
                rules[0],
                premises=tuple(replace(p, dim="conceptual") for p in rules[0].premises),
            )
        ]
        unified = aggregate(
            SemanticGraph("temporal"), SemanticGraph("spatial"), SemanticGraph("conceptual")
        )
        with pytest.raises(ValidationError):
            assess_hazards(unified, flat)

    def test_no_phantom_hazards_vs_rule_oracle(self, rule_data):
        """Every hazard must be re-derivable by plain forward chaining."""
        from gridmind.kb import forward_chain

        unified = aggregate(
            graph("temporal", *HOT_COFFEE_T),
            graph("spatial", *HOT_COFFEE_S),
            graph("conceptual", *HOT_COFFEE_C),
        )
        check = SemanticGraph("unified")
        for fact in unified.graph.facts():
            check.insert(fact)
        hazards = assess_hazards(unified, rule_data.hazard_rules)
        oracle = forward_chain(check, rule_data.hazard_rules).derived
        assert {f.key() for f in hazards} <= {f.key() for f in oracle}


def test_unified_fact_set_invariant_under_content_permutation(rule_data):
    """Which dimension carries a fact must not change the unified set."""
    triples = [
        ("a", "Near", "b", 0.7),
        ("a", "has_state", "hot", 0.9),
        ("b", "isa", "dog", 1.0),
    ]
    layouts = [
        (triples[:1], triples[1:2], triples[2:]),
        (triples[2:], triples[:1], triples[1:2]),
        ([], triples, []),
    ]
    outputs = []
    for t_facts, s_facts, c_facts in layouts:
        unified = aggregate(
            graph("temporal", *t_facts),
            graph("spatial", *s_facts),
            graph("conceptual", *c_facts),
            exclusion_pairs=rule_data.exclusions,
        )
        outputs.append(unified.graph.to_lines())
    assert outputs[0] == outputs[1] == outputs[2]
