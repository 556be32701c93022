"""Knowledge base: facts, graphs, forward chaining, queries."""

from __future__ import annotations

import ast
import copy
import inspect
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUNDLED
from gridmind import canonical, kb
from gridmind.agent import data_root, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.kb import (
    Atom,
    Fact,
    Rule,
    SemanticGraph,
    ValidationError,
    fact_from_line,
    forward_chain,
    graph_from_lines,
    is_var,
    query,
)
from gridmind.memory import WorkingMemory
from gridmind.world import parse_scenario
from oracles import (
    chaotic_forward_chain,
    reference_graph_merge,
    reference_match_premises,
    reference_wm_merge,
)


def fact(s, r, o, conf=1.0, tick=0, origin="perceived"):
    return Fact(s, r, o, conf, tick, origin)


class TestInsert:
    def test_insert_into_empty_graph(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup", 1.0, 0))
        assert len(graph) == 1

    def test_reinsert_keeps_max_confidence(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup", 0.4, 0))
        graph.insert(fact("cup1", "isa", "cup", 0.9, 3))
        assert len(graph) == 1
        stored = graph.get("cup1", "isa", "cup")
        assert stored.confidence == 0.9
        assert stored.tick == 3

    def test_reinsert_keeps_latest_tick_even_with_lower_confidence(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup", 0.9, 5))
        graph.insert(fact("cup1", "isa", "cup", 0.4, 9))
        stored = graph.get("cup1", "isa", "cup")
        assert stored.confidence == 0.9
        assert stored.tick == 9

    def test_negative_tick_rejected(self):
        with pytest.raises(ValidationError):
            fact("a", "isa", "b", 1.0, -1).validate()


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]), st.sampled_from(["isa", "Near", "LeftOf"]),
            st.sampled_from(["a", "b", 3]), st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 3),
        ),
        max_size=30,
    )
)
def test_relation_index_is_the_stored_facts_grouped_in_insertion_order(inserts):
    # the index is the one store, kept by insert; a replaced fact keeps its
    # first slot, and iteration goes group by group
    graph = SemanticGraph()
    first_seen: list[tuple[str, str, str]] = []
    for s, r, o, conf, tick in inserts:
        f = fact(s, r, o, conf, tick)
        if f.key() not in first_seen:
            first_seen.append(f.key())
        graph.insert(f)
    expected: dict[str, list] = {}
    for key in first_seen:
        expected.setdefault(key[1], []).append(graph.lookup(key))
    index = graph.by_relation()
    assert {r: list(group.values()) for r, group in index.items()} == expected
    assert all(list(group) == [f.key() for f in group.values()] for group in index.values())
    assert list(graph) == [f for group in expected.values() for f in group]
    assert len(graph) == len(first_seen)


@settings(max_examples=400)
@given(
    # objects of one key: equal symbols, equal ints, and floats that render
    # alike but differ (one key holding two numbers)
    objects=st.sampled_from(
        [("cup", "cup"), (5, 5), (0.1234561, 0.1234561), (0.1234561, 0.1234564), (0.1234564, 0.1234561)]
    ),
    confidences=st.tuples(st.sampled_from([0.2, 0.5, 0.9]), st.sampled_from([0.2, 0.5, 0.9])),
    ticks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    origins=st.tuples(st.sampled_from(kb.ORIGINS), st.sampled_from(kb.ORIGINS)),
)
def test_merge_is_both_old_merge_rules(objects, confidences, ticks, origins):
    held, incoming = (
        Fact("cup1", "at", obj, conf, tick, origin)
        for obj, conf, tick, origin in zip(objects, confidences, ticks, origins)
    )
    assert held.key() == incoming.key()
    merged = kb.merge(held, incoming)
    expected = reference_graph_merge(held, incoming)
    assert merged == expected == reference_wm_merge(held, incoming)
    # the merge is the prevailing fact at the larger tick
    assert merged == kb.prevailing(held, incoming).at_tick(max(ticks))
    # no copy when the held or the incoming fact already is the merge
    if expected == held:
        assert merged is held
    elif expected == incoming:
        assert merged is incoming
    else:
        assert merged is not held and merged is not incoming
    graph = SemanticGraph()
    graph.insert(held)
    assert graph.insert(incoming) == (expected != held)
    assert graph.lookup(held.key()) == expected and len(graph) == 1
    wm = WorkingMemory()
    wm.insert(held, 0.5, 0)
    wm.insert(incoming, 0.5, 0)
    assert wm.get(held.key()).fact == expected


class TestKeyCache:
    def test_key_is_computed_once_and_reused(self):
        f = fact("cup1", "at", 3.5)
        assert f.key() is f.key()
        assert f.key() == ("cup1", "at", "3.500000")

    def test_replaced_copy_gets_its_own_key(self):
        f = fact("cup1", "at", "1,2")
        f.key()
        moved = replace(f, obj="3,4")
        assert moved.key() == ("cup1", "at", "3,4")
        assert f.key() == ("cup1", "at", "1,2")

    def test_eq_hash_and_repr_ignore_the_cache(self):
        cached, fresh = fact("cup1", "isa", "cup"), fact("cup1", "isa", "cup")
        before = repr(cached)
        cached.key()
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == before == repr(fresh)

    def test_invalid_literal_still_raises(self):
        with pytest.raises(TypeError):
            fact("cup1", "isa", True).validate()
        with pytest.raises(TypeError):
            fact("cup1", "isa", True).key()

    @pytest.mark.parametrize(
        "obj", [True, False, float("nan"), float("inf"), float("-inf"), ["a"], None],
        ids=["true", "false", "nan", "inf", "-inf", "list", "none"],
    )
    def test_object_that_is_no_literal_raises_where_the_fact_is_built(self, obj):
        with pytest.raises((TypeError, ValueError)):
            fact("cup1", "isa", obj)

    def test_symbol_is_checked_by_validate_not_by_the_key(self):
        f = fact("cup1", "isa", "a|b")
        assert f.key() == ("cup1", "isa", "a|b")
        with pytest.raises(ValueError):
            f.validate()


class TestConstructor:
    @pytest.mark.parametrize("name", ["subject", "relation", "obj", "confidence", "tick", "origin", "_key"])
    def test_no_field_and_not_the_key_can_be_assigned(self, name):
        f = fact("cup1", "size", 5)
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, "x")
        assert f == fact("cup1", "size", 5) and f.key() == ("cup1", "size", "5")

    def test_keywords_positions_and_the_default_origin_build_one_fact(self):
        by_keyword = Fact(subject="cup1", relation="size", obj=5, confidence=0.5, tick=2)
        assert by_keyword == Fact("cup1", "size", 5, 0.5, 2, "asserted")
        assert by_keyword.origin == "asserted" and by_keyword.key() == ("cup1", "size", "5")
        assert list(inspect.signature(Fact).parameters) == [f.name for f in fields(Fact)]

    @pytest.mark.parametrize("obj", ["red", 5, 5.0, -0.0, 2.5], ids=["str", "int", "float", "negative-zero", "fraction"])
    def test_pickle_and_deepcopy_keep_eq_hash_and_key(self, obj):
        f = fact("cup1", "size", obj, 0.75, 3, "derived")
        for restored in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert restored == f and hash(restored) == hash(f) and repr(restored) == repr(f)
            assert restored.key() == f.key() and type(restored.obj) is type(obj)
            assert restored.at_tick(4) == replace(restored, tick=4) == f.at_tick(4)
            with pytest.raises(FrozenInstanceError):
                restored.tick = 1

    def test_int_and_float_objects_keep_distinct_key_tokens(self):
        as_int, as_float = fact("cup1", "size", 5), fact("cup1", "size", 5.0)
        assert as_int.key() == ("cup1", "size", "5")
        assert as_float.key() == ("cup1", "size", "5.000000")
        graph = SemanticGraph()
        graph.insert(as_int)
        graph.insert(as_float)
        assert [f.obj for f in graph] == [5, 5.0] and [type(f.obj) for f in graph] == [int, float]


class TestAtTick:
    @pytest.mark.parametrize("obj", ["red", 5, 2.5, -0.0], ids=["str", "int", "float", "negative-zero"])
    @pytest.mark.parametrize("tick", [0, 7, 10**12])
    def test_restamped_copy_equals_the_replaced_one(self, obj, tick):
        f = fact("cup1", "size", obj, conf=0.75, tick=3, origin="derived")
        moved, expected = f.at_tick(tick), replace(f, tick=tick)
        assert moved == expected and hash(moved) == hash(expected)
        assert repr(moved) == repr(expected)
        assert moved.key() == expected.key() and type(moved.obj) is type(obj)
        assert moved is not f and f.tick == 3

    def test_restamped_copy_is_frozen_and_keeps_the_key_object(self):
        f = fact("cup1", "at", 3.5)
        moved = f.at_tick(9)
        assert moved.key() is f.key()
        with pytest.raises(AttributeError):
            moved.tick = 1


def _tick_only_replace_calls(path: Path) -> list[int]:
    """Line numbers of `replace(x, tick=...)` calls: a copy moved to another
    tick that bypasses `Fact.at_tick`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "replace" and [k.arg for k in node.keywords] == ["tick"]:
                lines.append(node.lineno)
    return lines


def test_no_fact_moves_to_another_tick_but_through_at_tick():
    sources = sorted((Path(__file__).resolve().parent.parent / "src" / "gridmind").glob("*.py"))
    assert sources
    found = {p.name: lines for p in sources if (lines := _tick_only_replace_calls(p))}
    assert found == {}


SYMBOLS = st.text(min_size=1, max_size=8).filter(lambda t: not any(c in t for c in "|\n\r "))
LITERALS = SYMBOLS | st.integers() | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(s=SYMBOLS, r=SYMBOLS, o=LITERALS, other=LITERALS, conf=st.floats(0.0, 1.0))
def test_key_is_subject_relation_and_literal_token(s, r, o, other, conf):
    f = Fact(s, r, o, conf, 0, "asserted")
    f.validate()
    assert f.key() == (s, r, canonical.fmt_literal(o))
    assert replace(f, confidence=conf / 2).key() == f.key()
    assert replace(f, obj=other).key() == (s, r, canonical.fmt_literal(other))
    assert f.key() == (s, r, canonical.fmt_literal(o))


class TestSerialization:
    def test_line_round_trip(self):
        original = fact("cup1", "size", 3, 0.75, 7, "derived")
        line = original.to_line()
        assert line == "cup1|size|3|0.750000|7|derived"
        assert fact_from_line(line) == original

    def test_lines_sorted_by_identity_key(self):
        graph = SemanticGraph()
        graph.insert(fact("b", "Near", "c"))
        graph.insert(fact("a", "Near", "b"))
        lines = graph.to_lines()
        assert lines == sorted(lines)
        assert graph_from_lines(lines).to_lines() == lines


def _spill_rule(weight=1.0):
    return Rule(
        name="knockover-spill",
        premises=(
            Atom("isa", "?x", "cup"),
            Atom("has_state", "?x", "knocked_over"),
            Atom("Contains", "?x", "?y"),
        ),
        conclusion=Atom("has_state", "?y", "spilled"),
        weight=weight,
    )


class TestForwardChain:
    def test_knocked_over_cup_spills_contained_liquid(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup"))
        graph.insert(fact("cup1", "has_state", "knocked_over"))
        graph.insert(fact("cup1", "Contains", "liq1"))
        result = forward_chain(graph, [_spill_rule()])
        assert [f.key() for f in result.derived] == [("liq1", "has_state", "spilled")]
        assert result.derived[0].origin == "derived"
        assert not result.truncated

    def test_empty_rule_list_is_noop(self):
        graph = SemanticGraph()
        graph.insert(fact("a", "isa", "thing"))
        before = graph.to_lines()
        result = forward_chain(graph, [])
        assert result.derived == []
        assert graph.to_lines() == before

    def test_two_step_chain_reaches_both_conclusions(self):
        graph = SemanticGraph()
        graph.insert(fact("e1", "has_state", "a"))
        rules = [
            Rule("a-to-b", (Atom("has_state", "?x", "a"),), Atom("has_state", "?x", "b"), 1.0),
            Rule("b-to-c", (Atom("has_state", "?x", "b"),), Atom("has_state", "?x", "c"), 1.0),
        ]
        result = forward_chain(graph, rules)
        derived = {f.key(): f.confidence for f in result.derived}
        assert derived == {
            ("e1", "has_state", "b"): 1.0,
            ("e1", "has_state", "c"): 1.0,
        }

    def test_two_knocked_cups_yield_two_spills(self):
        graph = SemanticGraph()
        for cup, liq in (("cup1", "liq1"), ("cup2", "liq2")):
            graph.insert(fact(cup, "isa", "cup"))
            graph.insert(fact(cup, "has_state", "knocked_over"))
            graph.insert(fact(cup, "Contains", liq))
        result = forward_chain(graph, [_spill_rule()])
        assert sorted(f.subject for f in result.derived) == ["liq1", "liq2"]

    def test_derived_confidence_is_weight_times_premise_product(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup", 0.8))
        graph.insert(fact("cup1", "has_state", "knocked_over", 0.5))
        graph.insert(fact("cup1", "Contains", "liq1", 1.0))
        result = forward_chain(graph, [_spill_rule(weight=0.9)])
        assert result.derived[0].confidence == pytest.approx(0.9 * 0.8 * 0.5)

    def test_truncation_flag_when_budget_too_small(self):
        graph = SemanticGraph()
        graph.insert(fact("e1", "has_state", "a"))
        rules = [
            Rule("a-to-b", (Atom("has_state", "?x", "a"),), Atom("has_state", "?x", "b"), 1.0),
            Rule("b-to-c", (Atom("has_state", "?x", "b"),), Atom("has_state", "?x", "c"), 1.0),
            Rule("c-to-d", (Atom("has_state", "?x", "c"),), Atom("has_state", "?x", "d"), 1.0),
        ]
        result = forward_chain(graph, rules, max_iterations=2)
        assert result.truncated

    def test_fixpoint_reached_on_the_last_allowed_pass_is_not_truncated(self):
        graph = SemanticGraph()
        graph.insert(fact("e1", "has_state", "a"))
        rules = [
            Rule("a-to-b", (Atom("has_state", "?x", "a"),), Atom("has_state", "?x", "b"), 1.0),
            Rule("b-to-c", (Atom("has_state", "?x", "b"),), Atom("has_state", "?x", "c"), 1.0),
        ]
        # b on pass 1, c on pass 2, and a third pass would change nothing
        result = forward_chain(graph, rules, max_iterations=2)
        assert not result.truncated and result.iterations == 2
        assert [f.key() for f in result.derived] == [("e1", "has_state", "b"), ("e1", "has_state", "c")]
        # cut at pass 1, the graph lacks c, which a further pass would add
        graph = SemanticGraph()
        graph.insert(fact("e1", "has_state", "a"))
        result = forward_chain(graph, rules, max_iterations=1)
        assert result.truncated and result.iterations == 1
        assert graph.lookup(("e1", "has_state", "c")) is None

    def test_a_further_pass_that_only_raises_a_confidence_truncates(self):
        graph = SemanticGraph()
        graph.insert(fact("e1", "p", "x", 1.0))
        graph.insert(fact("e1", "q", "x", 0.5))
        rules = [
            Rule("p-to-q", (Atom("p", "?s", "?o"),), Atom("q", "?s", "?o"), 1.0),
            Rule("q-to-r", (Atom("q", "?s", "?o"),), Atom("r", "?s", "?o"), 1.0),
        ]
        # pass 1 raises q to 1.0 and derives r from q as it stood, at 0.5;
        # a second pass would add no key, but would raise r to 1.0
        result = forward_chain(graph, rules, max_iterations=1)
        assert result.truncated
        assert graph.lookup(("e1", "r", "x")).confidence == 0.5

    def test_range_restriction_enforced(self):
        # a rule is validated where it is built, so no invalid rule reaches forward_chain
        with pytest.raises(ValidationError):
            Rule("unbound", (Atom("isa", "?x", "cup"),), Atom("has_state", "?y", "spilled"), 1.0)

    def test_guard_filters_bindings(self):
        graph = SemanticGraph()
        graph.insert(fact("a", "size", 5))
        graph.insert(fact("b", "size", 1))
        from gridmind.kb import Guard

        rule = Rule(
            "big",
            (Atom("size", "?x", "?s"),),
            Atom("has_state", "?x", "big"),
            1.0,
            guards=(Guard("?s", ">=", 3),),
        )
        result = forward_chain(graph, [rule])
        assert [f.subject for f in result.derived] == ["a"]

    def test_monotone_and_idempotent_at_fixpoint(self):
        graph = SemanticGraph()
        graph.insert(fact("cup1", "isa", "cup"))
        graph.insert(fact("cup1", "has_state", "knocked_over"))
        graph.insert(fact("cup1", "Contains", "liq1"))
        before = set(k for k in (f.key() for f in graph.facts()))
        forward_chain(graph, [_spill_rule()])
        after = {f.key() for f in graph.facts()}
        assert before <= after
        again = forward_chain(graph, [_spill_rule()])
        assert again.derived == []


RELATIONS = ["isa", "has_state", "Near", "Contains"]


def _random_instance(rng: random.Random):
    entities = ["a", "b", "c"]
    symbols = ["red", "hot", "open"]
    facts = []
    for _ in range(rng.randint(1, 6)):
        relation = rng.choice(RELATIONS)
        subject = rng.choice(entities)
        obj = rng.choice(symbols) if relation in ("isa", "has_state") else rng.choice(entities)
        facts.append(Fact(subject, relation, obj, round(rng.uniform(0.3, 1.0), 2), 0, "perceived"))
    rules = []
    for i in range(rng.randint(1, 4)):
        premise_rel = rng.choice(RELATIONS)
        conclusion_rel = rng.choice(["has_state", "isa"])
        obj = rng.choice(symbols)
        rules.append(
            Rule(
                f"r{i}",
                (Atom(premise_rel, "?x", "?y" if premise_rel in ("Near", "Contains") else rng.choice(symbols)),),
                Atom(conclusion_rel, "?x", obj),
                round(rng.uniform(0.5, 1.0), 2),
            )
        )
    return facts, rules


def test_fixpoint_independent_of_rule_and_fact_order():
    """Permutations must agree with each other and with a chaotic oracle."""
    for seed in range(20):
        rng = random.Random(seed)
        facts, rules = _random_instance(rng)

        def outcome(fact_order, rule_order):
            graph = SemanticGraph()
            for f in fact_order:
                graph.insert(f)
            forward_chain(graph, list(rule_order))
            return {f.key(): round(f.confidence, 12) for f in graph.facts()}

        baseline = outcome(facts, rules)
        for _ in range(6):
            fact_order = facts[:]
            rule_order = rules[:]
            rng.shuffle(fact_order)
            rng.shuffle(rule_order)
            assert outcome(fact_order, rule_order) == baseline
        oracle = chaotic_forward_chain(facts, rules, random.Random(seed + 1000))
        assert {k: round(v, 12) for k, v in oracle.items()} == baseline


@settings(max_examples=60)
@given(
    confs=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=3),
    weight=st.floats(min_value=0.01, max_value=1.0),
)
def test_derived_confidence_never_exceeds_min_premise(confs, weight):
    graph = SemanticGraph()
    premises = []
    for i, conf in enumerate(confs):
        graph.insert(Fact("e", "has_state", f"s{i}", conf, 0, "perceived"))
        premises.append(Atom("has_state", "?x", f"s{i}"))
    rule = Rule("prod", tuple(premises), Atom("has_state", "?x", "out"), weight)
    result = forward_chain(graph, [rule])
    assert len(result.derived) == 1
    assert result.derived[0].confidence <= min(confs) + 1e-12


class TestQuery:
    def test_single_match(self):
        graph = SemanticGraph()
        graph.insert(fact("table", "LeftOf", "bed"))
        assert query(graph, Atom("LeftOf", "?x", "bed")) == [{"?x": "table"}]

    def test_query_on_empty_graph(self):
        assert query(SemanticGraph(), Atom("LeftOf", "?x", "?y")) == []

    def test_bindings_sorted_by_value(self):
        graph = SemanticGraph()
        for cup in ("cup3", "cup1", "cup2"):
            graph.insert(fact(cup, "isa", "cup"))
        result = query(graph, Atom("isa", "?x", "cup"))
        assert [b["?x"] for b in result] == ["cup1", "cup2", "cup3"]

    def test_ground_pattern_matches(self):
        graph = SemanticGraph()
        graph.insert(fact("table", "LeftOf", "bed"))
        assert query(graph, Atom("LeftOf", "table", "bed")) == [{}]
        assert query(graph, Atom("LeftOf", "bed", "table")) == []


def test_repeated_variable_in_pattern_requires_equal_terms():
    graph = SemanticGraph()
    graph.insert(fact("a", "Near", "b"))
    graph.insert(fact("c", "Near", "c"))
    result = query(graph, Atom("Near", "?x", "?x"))
    assert result == [{"?x": "c"}]


ORDER_FACTS = st.builds(
    Fact,
    subject=st.sampled_from(["a", "b", "c", "d"]),
    relation=st.sampled_from(
        ["LeftOf", "RightOf", "OnTopOf", "Inside", "Above", "isa", "has_state", "Contains", "located_in"]
    ),
    obj=st.sampled_from(["a", "b", "c", "d", "cup", "knocked_over", "edible", "kitchen", 5, 7.5]),
    confidence=st.floats(min_value=0.1, max_value=1.0),
    tick=st.integers(min_value=0, max_value=5),
    origin=st.sampled_from(["perceived", "asserted", "retrieved"]),
)


@settings(max_examples=100, deadline=None)
@given(facts=st.lists(ORDER_FACTS, max_size=25, unique_by=Fact.key), data=st.data())
def test_chaining_is_independent_of_fact_insertion_order(rule_data, facts, data):
    """The relation index keeps insertion order, so the order facts arrive
    in must not show in the derived list or in the graph chained to."""
    rules = rule_data.composition + rule_data.dependency_rules + rule_data.concept_rules

    def outcome(order):
        graph = SemanticGraph()
        for f in order:
            graph.insert(f)
        derived = forward_chain(graph, rules, max_iterations=1000).derived
        return [repr(f) for f in derived], [repr(f) for f in graph.facts()]

    assert outcome(data.draw(st.permutations(facts))) == outcome(facts)


# ---------------------------------------------------------------------------
# the compiled matcher against the reference nested loop

MATCH_FACTS = st.builds(
    Fact,
    subject=st.sampled_from(["a", "b", "c"]),
    relation=st.sampled_from(["p", "q"]),
    obj=st.sampled_from(["a", "b", "c", "5", 5, 5.0, 2.5]),
    confidence=st.sampled_from([0.25, 0.5, 1.0]),
    tick=st.integers(0, 3),
)
MATCH_TERMS = st.sampled_from(["?x", "?y", "?z", "a", "b", "5", 5, 5.0])
# a rule refuses a number subject, which no fact has
MATCH_SUBJECTS = MATCH_TERMS.filter(lambda term: isinstance(term, str))
MATCH_ATOMS = st.builds(Atom, st.sampled_from(["p", "q", "absent"]), MATCH_SUBJECTS, MATCH_TERMS)


@settings(max_examples=300, deadline=None)
@given(
    facts=st.lists(MATCH_FACTS, max_size=14),
    bodies=st.lists(st.lists(MATCH_ATOMS, min_size=1, max_size=3), min_size=1, max_size=3),
)
def test_compiled_matcher_returns_the_reference_matches_in_order(facts, bodies):
    # constants in either place, bound-bound premises, r(?x, ?x), and the
    # objects 5, 5.0 and "5"; the rules of one pass share one bucket table
    graph = SemanticGraph()
    for f in facts:
        graph.insert(f)
    index = graph.by_relation()
    buckets: dict = {}
    for n, body in enumerate(bodies):
        rule = Rule(f"r{n}", tuple(body), Atom("out", "a", "a"))
        got = kb._match_premises(rule._plan, index, buckets)
        expected = reference_match_premises(rule.premises, index)
        assert [repr(binding) for binding, _ in got] == [repr(binding) for binding, _ in expected]
        assert [[id(f) for f in used] for _, used in got] == [[id(f) for f in used] for _, used in expected]


def _random_rules(bodies, heads):
    """A rule per body, whose conclusion subject is a symbol whenever it
    fires: a constant, or a variable some premise has in subject position."""
    rules = []
    for n, (premises, (relation, subject_pick, obj_pick, weight)) in enumerate(zip(bodies, heads)):
        subjects = [p.subject for p in premises if is_var(p.subject)]
        variables = sorted(set().union(*(p.variables() for p in premises)))
        subject = subjects[subject_pick % len(subjects)] if subjects else "a"
        obj = variables[obj_pick % len(variables)] if variables and obj_pick >= 0 else "b"
        rules.append(Rule(f"r{n}", tuple(premises), Atom(relation, subject, obj), weight))
    return rules


# "5" and 5 share an identity key but not a match, so which of them a
# graph keeps would depend on arrival order; these facts never hold "5"
CHAIN_FACTS = MATCH_FACTS.filter(lambda f: f.obj != "5")


@settings(max_examples=80, deadline=None)
@given(
    facts=st.lists(CHAIN_FACTS, max_size=10, unique_by=Fact.key),
    bodies=st.lists(st.lists(MATCH_ATOMS, min_size=1, max_size=3), min_size=1, max_size=4),
    heads=st.lists(
        st.tuples(st.sampled_from(["p", "q"]), st.integers(0, 2), st.integers(-1, 3), st.sampled_from([0.5, 0.9, 1.0])),
        min_size=4, max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
def test_chaining_random_rules_reaches_the_chaotic_fixpoint(facts, bodies, heads, seed):
    rules = _random_rules(bodies, heads)
    graph = SemanticGraph()
    for f in facts:
        graph.insert(f)
    result = forward_chain(graph, rules, max_iterations=1000)
    assert not result.truncated
    oracle = chaotic_forward_chain(list(facts), rules, random.Random(seed))
    assert {k: round(v, 12) for k, v in oracle.items()} == {
        f.key(): round(f.confidence, 12) for f in graph.facts()
    }


CROWD_CATEGORIES = ("cup", "mug", "plate", "bowl", "vase", "mop", "box")


def _crowded_scene(fillers: int, seed: int) -> str:
    """A crowded-style fetch on a 40x40 grid: the agent, a box, a ball and
    fillers at distinct seeded cells at least three off the diagonal the
    agent walks. Fillers may touch, so there are Near facts; every eighth
    filler is a table with a vase on it, whose OnTopOf composes with the
    table's relations; one knocked-over cup spills what it holds."""
    rng = random.Random(seed)
    free = [(x, y) for x in range(4, 36) for y in range(4, 36) if abs(x - y) >= 3]
    lines = [
        "version 1",
        "grid 40 40",
        "region room 0 0 39 39",
        "agent robot1 1 1",
        "entity box1 3 1 category=box",
        "entity ball1 37 37 category=ball",
    ]
    for n, (x, y) in enumerate(rng.sample(free, fillers)):
        category = "table" if n % 8 == 0 else rng.choice(CROWD_CATEGORIES)
        lines.append(
            f"entity f{n:02d} {x} {y} category={category}"
            f" color={rng.choice(('red', 'blue', 'green'))} size={rng.randint(1, 5)}"
        )
        if category == "table":
            lines.append(f"entity v{n:02d} {x} {y} category=vase on=f{n:02d}")
    lines += [
        "fact f01 isa cup",
        "fact f01 has_state knocked_over",
        "fact f01 Contains liq1",
        "task fetch object=ball1 to=box1",
    ]
    return "\n".join(lines) + "\n"


def _trace_lines(text: str, noise: bool) -> list[str]:
    scenario = parse_scenario(text, "scene.scn")
    config = EngineConfig()
    if scenario.config_overrides:
        config = config.with_overrides(dict(scenario.config_overrides))
    return run_scenario(
        scenario, config, seed=0, planner_factory=scripted_planner_factory,
        noise=noise, scenario_text=text,
    ).lines


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED + ["crowded-60"])
def test_trace_is_the_same_with_the_reference_matcher(name, noise, monkeypatch):
    if name == "crowded-60":
        text = _crowded_scene(50, seed=3)
    else:
        text = data_root().joinpath("scenarios", f"{name}.scn").read_text(encoding="utf-8")
    compiled = _trace_lines(text, noise)
    calls = []

    def reference(plan, index, buckets):
        # the plan's premises, rebuilt from the terms each step keeps
        calls.append(plan)
        premises = tuple(Atom(relation, s_term, o_term) for relation, _, s_term, _, o_term in plan)
        return reference_match_premises(premises, index)

    monkeypatch.setattr(kb, "_match_premises", reference)
    assert _trace_lines(text, noise) == compiled
    assert calls
