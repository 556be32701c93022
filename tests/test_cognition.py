"""Unified cognition: aggregation, contradictions, hazards."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.cognition import aggregate, assess_hazards, detect_contradictions
from gridmind.kb import Fact, SemanticGraph
from conftest import CHAIN_CAP
from oracles import SPATIAL_VOCABULARY, all_pairs_contradictions


def facts(*triples):
    out = []
    for s, r, o, *rest in triples:
        conf = rest[0] if rest else 1.0
        out.append(Fact(s, r, o, conf, 0, "perceived"))
    return out


def graph(*triples):
    return _graph_of(facts(*triples))


def _graph_of(fact_list):
    g = SemanticGraph()
    for fact in fact_list:
        g.insert(fact)
    return g


class TestAggregate:
    def test_disjoint_union_keeps_every_fact(self):
        t = facts(("a", "has_state", "moving"), ("b", "has_state", "moving"))
        s = facts(("a", "Near", "b"), ("b", "Near", "c"), ("a", "at", "0,0"))
        c = facts(
            ("a", "isa", "cat"), ("b", "isa", "dog"), ("c", "isa", "rug"), ("d", "isa", "toy")
        )
        carried = _graph_of(s + c)
        unified = aggregate(carried, t)
        assert len(unified.graph) == 9
        assert unified.graph.facts() == sorted(t + s + c, key=Fact.key)
        assert carried.facts() == sorted(s + c, key=Fact.key)

    def test_same_triple_max_merges_confidence(self):
        s = facts(("a", "Near", "b", 0.6))
        c = facts(("a", "Near", "b", 0.8))
        unified = aggregate(_graph_of(s), c)
        assert unified.graph.get("a", "Near", "b").confidence == 0.8

    def test_the_unified_graph_is_a_copy_the_carried_graph_outlives(self):
        carried = _graph_of(facts(("a", "at", "0,0"), ("a", "isa", "cat")))
        lines = carried.to_lines()
        unified = aggregate(carried, facts(("a", "Near", "b")))
        unified.graph.insert(Fact("a", "isa", "cat", 1.0, 5, "derived"))
        unified.graph.insert(Fact("b", "isa", "dog", 1.0, 5, "asserted"))
        unified.graph.replace(facts(("a", "at", "0,0")), [])
        assert carried.to_lines() == lines
        assert [f.key() for f in unified.graph.facts()] == [
            ("a", "Near", "b"), ("a", "isa", "cat"), ("b", "isa", "dog")
        ]

    def test_aggregate_twice_is_fixpoint(self, rule_data):
        t = facts(("k", "has_state", "moving"))
        s = facts(("w", "Near", "e"))
        c = facts(("w", "has_state", "wet"), ("e", "has_state", "powered"))
        once = aggregate(_graph_of(s + c), t)
        twice = aggregate(SemanticGraph(), once.graph.facts())
        assert twice.graph.to_lines() == once.graph.to_lines()


class TestContradictions:
    def test_opposite_relations_on_same_pair(self, rule_data):
        g = graph(("a", "LeftOf", "b"), ("a", "RightOf", "b"))
        found = detect_contradictions(g, rule_data.exclusions)
        assert len(found) == 1

    def test_single_fact_is_consistent(self, rule_data):
        g = graph(("a", "LeftOf", "b"))
        assert detect_contradictions(g, rule_data.exclusions) == []

    def test_antisymmetry_violation(self, rule_data):
        g = graph(("a", "LeftOf", "b"), ("b", "LeftOf", "a"))
        found = detect_contradictions(g, rule_data.exclusions)
        assert len(found) == 1

    def test_converse_assertions_are_consistent(self, rule_data):
        # LeftOf(a, b) together with RightOf(b, a) is the expected converse
        g = graph(("a", "LeftOf", "b"), ("b", "RightOf", "a"))
        assert detect_contradictions(g, rule_data.exclusions) == []

    def test_detection_never_deletes(self, rule_data):
        g = graph(("a", "LeftOf", "b"), ("a", "RightOf", "b"))
        detect_contradictions(g, rule_data.exclusions)
        assert len(g) == 2

    def test_symbol_and_number_with_one_key_token_are_not_opposites(self, rule_data):
        g = graph(("a", "LeftOf", "5"), ("a", "RightOf", 5))
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
    g = graph(*triples)
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
        unified = aggregate(graph(*HOT_COFFEE_S, *HOT_COFFEE_C), facts(*HOT_COFFEE_T))
        hazards = assess_hazards(unified, rule_data.hazard_rules, CHAIN_CAP)
        assert [(f.subject, f.obj) for f in hazards] == [("coffee1", "spill_burn")]
        assert hazards[0].confidence == pytest.approx(0.9)

    def test_wet_near_powered_wire(self, rule_data):
        unified = aggregate(
            graph(("water1", "has_state", "wet"), ("wire1", "has_state", "powered")),
            facts(("water1", "Near", "wire1")),
        )
        hazards = assess_hazards(unified, rule_data.hazard_rules, CHAIN_CAP)
        assert [(f.subject, f.obj) for f in hazards] == [("wire1", "electrocution")]

    def test_cold_coffee_no_children_no_hazard(self, rule_data):
        unified = aggregate(graph(("edge1", "isa", "table_edge")), facts(("coffee1", "Near", "edge1")))
        assert assess_hazards(unified, rule_data.hazard_rules, CHAIN_CAP) == []

    def test_no_phantom_hazards_vs_rule_oracle(self, rule_data):
        """Every hazard must be re-derivable by plain forward chaining."""
        from gridmind.kb import forward_chain

        unified = aggregate(graph(*HOT_COFFEE_S, *HOT_COFFEE_C), facts(*HOT_COFFEE_T))
        check = SemanticGraph()
        for fact in unified.graph.facts():
            check.insert(fact)
        hazards = assess_hazards(unified, rule_data.hazard_rules, CHAIN_CAP)
        oracle = forward_chain(check, rule_data.hazard_rules).derived
        assert {f.key() for f in hazards} <= {f.key() for f in oracle}


def test_unified_fact_set_invariant_under_content_permutation(rule_data):
    """Whether perception carries a fact or makes it fresh must not change
    the unified set."""
    triples = [
        ("a", "Near", "b", 0.7),
        ("a", "has_state", "hot", 0.9),
        ("b", "isa", "dog", 1.0),
    ]
    layouts = [
        (triples[:1], triples[1:]),
        (triples[2:], triples[:2]),
        ([], triples),
        (triples, []),
    ]
    outputs = []
    for carried, fresh in layouts:
        unified = aggregate(graph(*carried), facts(*fresh))
        outputs.append(unified.graph.to_lines())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
