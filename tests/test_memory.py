"""Working and long-term memory."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.kb import Atom, Fact
from gridmind.memory import (
    Episode,
    LongTermMemory,
    WorkingMemory,
    consolidate,
    ltm_retrieve,
    retrieve_episodes,
)
from oracles import SortingWorkingMemory


def fact(s, r, o, conf=1.0, tick=0, origin="perceived"):
    return Fact(s, r, o, conf, tick, origin)


def episode(kind="fetch", outcome="success", start=0, end=3):
    return Episode(
        task_kind=kind, task_params={}, plan_steps=[], results=[], anomalies=[],
        outcome=outcome, start_tick=start, end_tick=end,
    )


class TestWorkingMemory:
    def test_eviction_drops_lowest_salience(self):
        wm = WorkingMemory(capacity=2)
        wm.insert(fact("a", "isa", "x"), salience=0.2, tick=0)
        wm.insert(fact("b", "isa", "x"), salience=0.9, tick=0)
        wm.insert(fact("c", "isa", "x"), salience=1.0, tick=0)
        assert len(wm) == 2
        assert ("a", "isa", "x") not in wm

    def test_reinsert_refreshes_instead_of_evicting(self):
        wm = WorkingMemory(capacity=2)
        wm.insert(fact("a", "isa", "x"), salience=0.2, tick=0)
        wm.insert(fact("b", "isa", "x"), salience=0.9, tick=0)
        wm.insert(fact("a", "isa", "x"), salience=0.95, tick=1)
        assert len(wm) == 2
        assert wm.get(("a", "isa", "x")).salience == 0.95

    def test_tie_break_evicts_larger_identity_key(self):
        wm = WorkingMemory(capacity=2)
        wm.insert(fact("b", "isa", "x"), salience=0.5, tick=0)
        wm.insert(fact("c", "isa", "x"), salience=0.5, tick=0)
        wm.insert(fact("a", "isa", "x"), salience=0.5, tick=0)
        assert ("c", "isa", "x") not in wm
        assert ("a", "isa", "x") in wm and ("b", "isa", "x") in wm

    def test_salience_decays_with_age(self):
        wm = WorkingMemory(capacity=8, decay=0.95)
        wm.insert(fact("a", "isa", "x"), salience=1.0, tick=0)
        item = wm.get(("a", "isa", "x"))
        assert item.effective_salience(10, 0.95) == pytest.approx(0.95 ** 10)

    def test_snapshot_is_canonically_ordered(self):
        wm = WorkingMemory(capacity=8)
        wm.insert(fact("c", "isa", "x"), 0.9, 0)
        wm.insert(fact("a", "isa", "x"), 0.1, 0)
        keys = [f.key() for f in wm.snapshot_facts()]
        assert keys == sorted(keys)


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 30), st.floats(min_value=0.0, max_value=1.0), st.integers(0, 40)),
        max_size=120,
    )
)
def test_capacity_bound_holds_under_random_streams(ops):
    wm = WorkingMemory(capacity=8)
    for subject, salience, tick in ops:
        wm.insert(fact(f"e{subject}", "isa", "thing"), salience, tick)
        assert len(wm) <= 8


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 6),
    decay=st.sampled_from([0.5, 0.95, 1.0]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e", "f"]),
            st.sampled_from(["x", 5, 5.0, "5"]),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from([0.0, 0.5, 1.0]),
            st.integers(0, 4),
        ),
        max_size=60,
    ),
)
def test_eviction_scan_matches_sorting_reference(capacity, decay, ops):
    """Tied saliences and ticks, evicted keys inserted again."""
    wm = WorkingMemory(capacity=capacity, decay=decay)
    reference = SortingWorkingMemory(capacity, decay)
    for subject, obj, confidence, salience, tick in ops:
        item = fact(subject, "at", obj, confidence, tick)
        wm.insert(item, salience, tick)
        reference.insert(item, salience, tick)
        assert [(i.fact, i.salience, i.inserted, i.touched) for i in wm.items()] == [
            tuple(reference.items[k]) for k in sorted(reference.items)
        ]


def test_ordering_is_total_and_reproducible():
    rng = random.Random(3)
    wm = WorkingMemory(capacity=64)
    for i in range(40):
        wm.insert(fact(f"e{i}", "isa", "thing"), rng.random(), rng.randint(0, 9))
    once = [item.fact.key() for item in wm.ordered(10)]
    again = [item.fact.key() for item in wm.ordered(10)]
    assert once == again
    assert len(set(once)) == len(once)


class TestLongTermMemory:
    def test_retrieve_orders_by_confidence_then_recency(self):
        ltm = LongTermMemory()
        ltm.semantic.insert(fact("cup1", "isa", "cup", 0.9, 5))
        ltm.semantic.insert(fact("cup2", "isa", "cup", 0.9, 9))
        ltm.semantic.insert(fact("cup3", "isa", "cup", 0.5, 9))
        top = ltm_retrieve(ltm, Atom("isa", "?x", "cup"), k=2)
        assert [f.subject for f in top] == ["cup2", "cup1"]

    def test_no_match_returns_empty(self):
        assert ltm_retrieve(LongTermMemory(), Atom("isa", "?x", "cup"), k=3) == []

    def test_exact_fact_retrieved(self):
        ltm = LongTermMemory()
        ltm.semantic.insert(fact("cup1", "isa", "cup"))
        top = ltm_retrieve(ltm, Atom("isa", "cup1", "cup"), k=1)
        assert [f.subject for f in top] == ["cup1"]

    def test_episode_recency_and_kind_filter(self):
        ltm = LongTermMemory()
        for i in range(5):
            ltm.append_episode(episode(kind="arrange", start=i, end=i))
        ltm.append_episode(episode(kind="fetch", start=9, end=9))
        top = retrieve_episodes(ltm, "arrange", k=3)
        assert [e.start_tick for e in top] == [4, 3, 2]
        assert retrieve_episodes(ltm, "navigate") == []


class TestConsolidate:
    def test_appends_exactly_one_episode(self):
        ltm = LongTermMemory()
        consolidate(ltm, WorkingMemory(), episode())
        assert len(ltm.episodic) == 1

    def test_low_confidence_fact_not_consolidated(self):
        ltm = LongTermMemory()
        wm = WorkingMemory()
        wm.insert(fact("a", "isa", "x", 0.4), 1.0, 0)
        consolidate(ltm, wm, episode())
        assert len(ltm.semantic) == 0

    def test_max_merge_raises_stored_confidence(self):
        ltm = LongTermMemory()
        ltm.semantic.insert(fact("a", "isa", "x", 0.7))
        wm = WorkingMemory()
        wm.insert(fact("a", "isa", "x", 0.9), 1.0, 0)
        consolidate(ltm, wm, episode())
        assert ltm.semantic.get("a", "isa", "x").confidence == 0.9

    def test_retrieved_and_asserted_origins_not_consolidated(self):
        ltm = LongTermMemory()
        wm = WorkingMemory()
        wm.insert(fact("a", "isa", "x", 0.9, origin="retrieved"), 1.0, 0)
        wm.insert(fact("b", "isa", "x", 0.9, origin="asserted"), 1.0, 0)
        consolidate(ltm, wm, episode())
        assert len(ltm.semantic) == 0

    def test_idempotent_for_already_consolidated_facts(self):
        ltm = LongTermMemory()
        wm = WorkingMemory()
        wm.insert(fact("a", "isa", "x", 0.9), 1.0, 0)
        consolidate(ltm, wm, episode())
        lines = ltm.semantic.to_lines()
        consolidate(ltm, wm, episode())
        assert ltm.semantic.to_lines() == lines
        assert len(ltm.episodic) == 2


def test_newly_inserted_item_may_itself_be_evicted():
    wm = WorkingMemory(capacity=2)
    wm.insert(fact("a", "isa", "x"), salience=0.5, tick=0)
    wm.insert(fact("b", "isa", "x"), salience=0.5, tick=0)
    wm.insert(fact("c", "isa", "x"), salience=0.1, tick=0)
    assert ("c", "isa", "x") not in wm
    assert len(wm) == 2
