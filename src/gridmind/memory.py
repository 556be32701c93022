"""Working memory and long-term memory for the decision loop.

Working memory is a capacity-limited buffer ordered by decayed salience;
long-term memory holds a persistent unified semantic graph plus an
append-only episodic log of completed decision cycles. Consolidation moves
confident perceived/derived facts from WM into semantic LTM after every
episode.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .kb import Atom, Fact, SemanticGraph, ValidationError, match


Rank = tuple[float, int, tuple[str, str, str]]


@dataclass(slots=True)
class WorkingMemoryItem:
    fact: Fact
    salience: float
    touched: int
    # rank at the tick of the memory's eviction order (see WorkingMemory)
    rank: Rank | None = field(default=None, compare=False, repr=False)


class WorkingMemory:
    """Salience-ordered buffer, never larger than its capacity.

    Order (best first): effective salience desc, last-touched desc,
    identity key asc; the rank ends in the unique identity key, so it has
    no ties. Eviction removes the worst-ordered item.

    Within one tick no rank changes except that of the item an insert
    touches, so the first eviction at tick `t` ranks every item once
    (`decay ** age` once per distinct age), stores each rank on its item
    and sorts the ranks into an ascending list; every eviction at `t` pops
    its last entry. While that order belongs to `t`, each insert at `t`
    keeps it and the stored ranks current. An item an insert at `t`
    touches has age 0, so its rank is `(-salience, -touched, key)` with no
    power: a new item's rank is insorted, and a merge removes the stored
    rank with one bisect and insorts the new one. A new key that would
    rank below the last entry while the memory is full is the item the
    eviction would pop at once, so the insert returns before building it.
    An insert at any other tick drops the order, evicting or not, since
    ranks decay with `now` and a merge at another tick would leave a
    stale rank.

    A merge keeps the fact with the larger confidence (the held one on a
    tie) at the larger tick, and the larger salience and touch tick. When
    the incoming fact already is that fact (a tick no older, and a larger
    confidence, or the same confidence, origin and object), it is stored
    as it is, which is nearly every merge; otherwise the kept fact is
    copied with the larger tick. Objects of one identity key that compare
    equal are of one type and render alike (`5 != "5"`, and an int's key
    token never equals a float's).
    """

    def __init__(self, capacity: int = 64, decay: float = 0.95) -> None:
        if capacity < 1:
            raise ValidationError("working memory capacity must be >= 1")
        self.capacity = capacity
        self.decay = decay
        self._items: dict[tuple[str, str, str], WorkingMemoryItem] = {}
        # ascending ranks of all items at tick self._now, or None
        self._now: int | None = None
        self._order_now: list[Rank] | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._items

    def get(self, key: tuple[str, str, str]) -> WorkingMemoryItem | None:
        return self._items.get(key)

    def insert(self, fact: Fact, salience: float, tick: int) -> None:
        if not 0.0 <= salience <= 1.0:
            raise ValidationError(f"salience {salience} outside [0, 1]")
        if tick != self._now:
            self._now, self._order_now = tick, None
        order = self._order_now
        key = fact.key()
        item = self._items.get(key)
        if item is not None:
            held = item.fact
            if fact.tick >= held.tick and (
                fact.confidence > held.confidence
                or fact.confidence == held.confidence
                and fact.origin == held.origin
                and fact.obj == held.obj
            ):
                item.fact = fact
            else:
                keep = fact if fact.confidence > held.confidence else held
                item.fact = keep.at_tick(max(held.tick, fact.tick))
            item.salience = max(item.salience, salience)
            item.touched = max(item.touched, tick)
            if order is not None:
                del order[bisect_left(order, item.rank)]
                item.rank = rank = (-item.salience, -item.touched, key)
                insort(order, rank)
            return
        rank = (-salience, -tick, key)
        if order is not None and len(self._items) >= self.capacity and rank > order[-1]:
            return
        self._items[key] = WorkingMemoryItem(fact, salience, tick, rank)
        if order is not None:
            insort(order, rank)
        elif len(self._items) > self.capacity:
            order = self._order_now = self._build_order(tick)
        while len(self._items) > self.capacity:
            del self._items[order.pop()[2]]

    def ordered(self, now: int) -> list[WorkingMemoryItem]:
        ranked = self._ranked(now)
        return [ranked[rank] for rank in sorted(ranked)]

    def _build_order(self, now: int) -> list[Rank]:
        """Store every item's rank at tick `now`; return them ascending."""
        ranked = self._ranked(now)
        for rank, item in ranked.items():
            item.rank = rank
        return sorted(ranked)

    def _ranked(self, now: int) -> dict[Rank, WorkingMemoryItem]:
        """Every item by its rank at tick `now`: smaller ranks first."""
        decay = self.decay
        powers: dict[int, float] = {}
        ranked = {}
        for key, item in self._items.items():
            age = max(0, now - item.touched)
            power = powers.get(age)
            if power is None:
                power = powers[age] = decay ** age
            ranked[(-(item.salience * power), -item.touched, key)] = item
        return ranked

    def snapshot_facts(self) -> list[Fact]:
        """Facts in canonical (identity key) order; byte-stable."""
        return [self._items[k].fact for k in sorted(self._items)]

    def items(self) -> list[WorkingMemoryItem]:
        return [self._items[k] for k in sorted(self._items)]


@dataclass
class Episode:
    task_kind: str
    task_params: dict[str, str]
    plan_steps: list[dict[str, object]]
    results: list[dict[str, object]]
    anomalies: list[dict[str, object]]
    outcome: str  # success | failure | aborted
    start_tick: int
    end_tick: int

    def summary(self) -> dict[str, object]:
        return {
            "task": self.task_kind,
            "params": {k: self.task_params[k] for k in sorted(self.task_params)},
            "plan": self.plan_steps,
            "results": self.results,
            "anomalies": self.anomalies,
            "outcome": self.outcome,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
        }


class LongTermMemory:
    def __init__(self) -> None:
        self.semantic = SemanticGraph()
        self.episodic: list[Episode] = []

    def append_episode(self, episode: Episode) -> None:
        if episode.outcome not in ("success", "failure", "aborted"):
            raise ValidationError(f"unknown episode outcome {episode.outcome!r}")
        self.episodic.append(episode)


def ltm_retrieve(ltm: LongTermMemory, pattern: Atom, k: int) -> list[Fact]:
    """Top-k semantic facts matching the pattern.

    Order: confidence desc, tick desc, identity key asc. Callers re-tag
    retrieved copies with origin=retrieved before putting them in WM.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    results = [fact for _, fact in match(ltm.semantic, pattern)]
    results.sort(key=lambda f: (-f.confidence, -f.tick, f.key()))
    return results[:k]


def retrieve_episodes(ltm: LongTermMemory, task_kind: str, k: int = 3) -> list[Episode]:
    """Most recent k episodes of the given task kind, newest first."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    matching = [e for e in ltm.episodic if e.task_kind == task_kind]
    return list(reversed(matching))[:k]


def consolidate(
    ltm: LongTermMemory,
    wm: WorkingMemory,
    episode: Episode,
    threshold: float = 0.5,
) -> LongTermMemory:
    """Append the episode and fold confident WM facts into semantic LTM."""
    ltm.append_episode(episode)
    for fact in wm.snapshot_facts():
        if fact.confidence >= threshold and fact.origin in ("perceived", "derived"):
            ltm.semantic.insert(fact)
    return ltm
