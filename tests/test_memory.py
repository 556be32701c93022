"""Working and long-term memory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind import memory
from gridmind.kb import ORIGINS, Atom, Fact, ValidationError
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
        task_kind=kind, task_params={}, plan_steps=[], planner_error=None,
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
        # at tick 10, "a" (salience 1.0, touched at 0) ranks as 0.95 ** 10:
        # between fresh items just above and just below that salience
        # at capacity, each fresh item of salience 1.0 evicts the worst: b, a, c
        wm = WorkingMemory(capacity=3, decay=0.95)
        wm.insert(fact("a", "isa", "x"), salience=1.0, tick=0)
        wm.insert(fact("b", "isa", "x"), salience=0.95 ** 10 - 1e-9, tick=10)
        wm.insert(fact("c", "isa", "x"), salience=0.95 ** 10 + 1e-9, tick=10)
        evicted = []
        for subject in ("d", "e", "f"):
            before = {item.fact.subject for item in wm.items()}
            wm.insert(fact(subject, "isa", "x"), salience=1.0, tick=10)
            evicted += before - {item.fact.subject for item in wm.items()}
        assert evicted == ["b", "a", "c"]

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


def rows(wm: WorkingMemory) -> list[tuple]:
    """(fact, type of its object, salience, touched) per item, by key: the
    form of `SortingWorkingMemory.rows`."""
    return [(i.fact, type(i.fact.obj), i.salience, i.touched) for i in wm.items()]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 6),
    decay=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    start=st.integers(0, 4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e", "f"]),
            st.sampled_from(["x", 5, 5.0, "5"]),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from(ORIGINS),
            st.sampled_from([0, 0, 1, -1]),
            st.sampled_from([0.0, 0.5, 1.0]),
            st.sampled_from([0, 1, -1]),
            st.booleans(),
        ),
        min_size=20,
        max_size=60,
    ),
)
def test_eviction_scan_matches_sorting_reference(capacity, decay, start, ops):
    """Tied saliences and ticks, evicted keys inserted again, and ticks that
    step back and forth, so inserts return to a tick whose eviction order
    was built before an insert at another tick. Tied confidences meet other
    origins, `5` meets `"5"` and facts are older or newer than the insert's
    tick, so a merge stores the incoming fact only where that is the merged
    result. An insert dates its fact at its own tick or at the insert's,
    which the reference is handed as a dated copy."""
    wm = WorkingMemory(capacity=capacity, decay=decay)
    reference = SortingWorkingMemory(capacity, decay)
    tick = start
    for subject, obj, confidence, origin, age, salience, step, dated in ops:
        tick = max(0, tick + step)
        item = fact(subject, "at", obj, confidence, max(0, tick - age), origin)
        date = tick if dated else None
        wm.insert(item, salience, tick, date)
        reference.insert(item if date is None else item.at_tick(date), salience, tick)
        assert rows(wm) == reference.rows()
        assert_ranks_current(wm, reference, tick)


def assert_ranks_current(wm: WorkingMemory, reference: SortingWorkingMemory, now: int) -> None:
    """While an eviction order is live for `now`, it holds one entry per
    item, ascending; each item's stored rank is its rank at `now`, each
    entry ranks its item no better than that, and the last entry, once
    settled, is the rank of the item `reference` would evict."""
    order = wm._order_now
    if order is None or wm._now != now:
        return
    assert sorted(entry[2] for entry in order) == sorted(item.held.key() for item in wm)
    assert order == sorted(order)
    for rank, item in wm._ranked(now):
        assert item.rank == rank
    for entry in order:
        assert entry >= wm.get(entry[2]).rank
    worst = max(item.rank for item in wm)
    assert worst[2] == reference.ordered(now)[-1]
    settled = list(order)  # settled apart, so no insert finds it settled
    wm._settle(settled)
    assert settled[-1] == worst


def test_rank_bookkeeping_is_checked_while_an_order_is_live():
    # a's touch ranks it above b but leaves its entry last; the next
    # eviction settles that entry and evicts b, as the reference does
    wm = WorkingMemory(capacity=2)
    reference = SortingWorkingMemory(2, 0.95)
    for subject, salience in (("a", 0.5), ("b", 0.6), ("c", 0.4), ("a", 0.9), ("d", 0.7)):
        wm.insert(fact(subject, "isa", "x", tick=3), salience, 3)
        reference.insert(fact(subject, "isa", "x", tick=3), salience, 3)
        assert_ranks_current(wm, reference, 3)
        assert rows(wm) == reference.rows()
        if (subject, salience) == ("a", 0.9):
            assert wm._order_now[-1][2] == ("a", "isa", "x")
            assert wm._order_now[-1] != wm.get(("a", "isa", "x")).rank
    assert wm._order_now is not None and len(wm._order_now) == 2
    assert [f.subject for f in wm.snapshot_facts()] == ["a", "d"]


@pytest.mark.parametrize("decay", [1.5, -0.1, float("nan")])
def test_decay_outside_the_unit_interval_is_refused(decay):
    with pytest.raises(ValidationError):
        WorkingMemory(decay=decay)


@pytest.mark.parametrize("decay", [0.0, 1.0])
def test_decay_at_either_end_of_the_unit_interval_is_accepted(decay):
    assert WorkingMemory(decay=decay).decay == decay


def test_a_touch_that_only_moves_the_date_builds_no_fact(monkeypatch):
    wm = WorkingMemory(capacity=4)
    held = fact("a", "at", "x", 0.5, 1)
    wm.insert(held, 0.5, 1)
    built = []
    at_tick = Fact.at_tick
    monkeypatch.setattr(Fact, "at_tick", lambda f, t: built.append(t) or at_tick(f, t))
    monkeypatch.setattr(Fact, "__init__", lambda *args: built.append(args))
    wm.insert(held, 0.5, 4, date=4)
    item = wm.get(held.key())
    assert built == [] and item.held is held and item.date == 4
    monkeypatch.undo()
    # read, the fact is at its date; the copy is made once
    assert item.fact == fact("a", "at", "x", 0.5, 4)
    assert item.fact is item.fact is wm.snapshot_facts()[0]


def test_new_key_below_every_item_of_a_full_memory_is_not_built(monkeypatch):
    wm = WorkingMemory(capacity=2)
    reference = SortingWorkingMemory(2, 0.95)
    for subject, salience in (("a", 0.5), ("b", 0.6), ("c", 0.4)):  # c builds the order
        wm.insert(fact(subject, "isa", "x"), salience, 3)
        reference.insert(fact(subject, "isa", "x"), salience, 3)
    built = []
    item_class = memory.WorkingMemoryItem
    monkeypatch.setattr(memory, "WorkingMemoryItem", lambda *args: built.append(args) or item_class(*args))
    # d and e rank below a, the worst held item, on salience and on the key
    # at a tie, so only A, above it on the key, is built (and evicts a)
    for subject, salience in (("d", 0.3), ("e", 0.5), ("A", 0.5)):
        wm.insert(fact(subject, "isa", "x"), salience, 3)
        reference.insert(fact(subject, "isa", "x"), salience, 3)
        assert rows(wm) == reference.rows()
    assert [args[0].subject for args in built] == ["A"]
    assert [f.subject for f in wm.snapshot_facts()] == ["A", "b"]


def test_merge_keeps_the_prevailing_fact_and_reads_it_at_the_later_date():
    wm = WorkingMemory(capacity=4)
    held = fact("a", "at", 5, 0.5, 1, "perceived")
    wm.insert(held, 0.5, 1)
    same = fact("a", "at", 5, 0.5, 2, "perceived")
    wm.insert(same, 0.5, 2)
    item = wm.get(held.key())
    assert item.held is held and item.date == 2 and item.fact == same
    # a tied confidence keeps the held origin and object, at the later tick
    for other in (fact("a", "at", 5, 0.5, 3, "derived"), fact("a", "at", "5", 0.5, 3, "perceived")):
        wm.insert(other, 0.5, 3)
        stored = wm.get(held.key()).fact
        assert stored is not other
        assert stored == fact("a", "at", 5, 0.5, 3, "perceived") and type(stored.obj) is int
    # a larger confidence prevails; an older fact never replaces the tick
    higher = fact("a", "at", "5", 0.9, 1, "derived")
    wm.insert(higher, 0.5, 4)
    assert item.held is higher
    assert wm.get(held.key()).fact == fact("a", "at", "5", 0.9, 3, "derived")


def test_merge_at_another_tick_does_not_leave_a_stale_eviction_order():
    ops = [
        ("a", 0.5, 2),
        ("b", 0.6, 2),
        ("c", 0.4, 2),  # evicts c: the eviction order of tick 2 is built
        ("a", 1.0, 3),  # merge at tick 3 lifts a above b
        ("d", 0.55, 2),  # back at tick 2: d is now the worst
    ]
    wm = WorkingMemory(capacity=2, decay=0.5)
    reference = SortingWorkingMemory(2, 0.5)
    for subject, salience, tick in ops:
        item = fact(subject, "isa", "x", tick=tick)
        wm.insert(item, salience, tick)
        reference.insert(item, salience, tick)
    assert [i.fact.key() for i in wm.items()] == sorted(reference.items)
    assert sorted(reference.items) == [("a", "isa", "x"), ("b", "isa", "x")]


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
