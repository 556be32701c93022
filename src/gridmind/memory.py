"""Working memory and long-term memory for the decision loop.

Working memory is a capacity-limited buffer ordered by decayed salience,
whose items keep the tick they took their facts at as a date of their own;
long-term memory holds a persistent unified semantic graph plus an
append-only episodic log of completed decision cycles. Consolidation moves
confident perceived/derived facts from WM into semantic LTM after every
episode.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass, field

from .kb import Atom, Fact, SemanticGraph, ValidationError, match, prevailing


Rank = tuple[float, int, tuple[str, str, str]]


@dataclass(slots=True)
class WorkingMemoryItem:
    # the fact whose confidence, origin and object the merges kept, at
    # whatever tick it came with; `fact` reads it at `date`, the tick the
    # item holds it at
    held: Fact
    date: int
    salience: float
    touched: int
    # rank at the tick of the memory's eviction order (see WorkingMemory)
    rank: Rank = field(compare=False, repr=False)

    @property
    def fact(self) -> Fact:
        """The held fact at the item's date. A held fact of another tick is
        copied once, on this read, and the copy is held from then on."""
        held = self.held
        if held.tick != self.date:
            held = self.held = held.at_tick(self.date)
        return held


class WorkingMemory:
    """Salience-ordered buffer, never larger than its capacity.

    Order (best first): effective salience desc, last-touched desc,
    identity key asc; the rank ends in the unique identity key, so it has
    no ties. Eviction removes the worst-ordered item.

    Within one tick no rank changes except that of the item an insert
    touches, so the first eviction at tick `t` ranks every item once
    (`decay ** age` once per distinct age, in `_ranked`, the one place
    that decays), storing each rank on its item and collecting it in the
    same loop, and sorts the ranks into an ascending list, one entry per
    item. While that order belongs to `t`, an insert at `t` keeps it: an
    item it touches has age 0, so its rank is `(-salience, -touched, key)`
    with no power. A new item is built with that rank (a later build
    overwrites it), which a live order insorts. A merge stores the new
    rank on the item and leaves the item's entry where it is: salience and
    touch tick only grow and `decay` lies in [0, 1], so the new rank is
    never worse than the entry, and every entry ranks its item no better
    than the item's stored rank. Before the last entry is read, `_settle`
    moves each stale last entry to its item's rank, so the last entry is
    the worst item's rank; every eviction at `t` pops it. A new key that
    finds the memory full builds the order if none is live; if the key
    would rank below the last entry, it is the item the eviction would pop
    at once, so the insert returns before building it. An insert at any
    other tick drops the order, evicting or not, since ranks decay with
    `now`.

    An insert dates its fact at `date`, or at the fact's own tick if
    `date` is None. A merge keeps the larger salience, touch tick and
    date, and the fact `kb.prevailing` picks, which is the choice of
    `kb.merge`, the graphs' one merge rule. The item holds that fact and
    its date apart and dates the fact only when it is read
    (`WorkingMemoryItem.fact`), so no merge builds a fact, and a merged
    item reads as `kb.merge` of the facts at their dates.
    """

    def __init__(self, capacity: int = 64, decay: float = 0.95) -> None:
        if capacity < 1:
            raise ValidationError("working memory capacity must be >= 1")
        # a decay in [0, 1] never worsens a touched item's rank (see above)
        if not 0.0 <= decay <= 1.0:
            raise ValidationError(f"working memory decay {decay} outside [0, 1]")
        self.capacity = capacity
        self.decay = decay
        self._items: dict[tuple[str, str, str], WorkingMemoryItem] = {}
        # one entry per item, ascending, each no better than its item's
        # rank at tick self._now; or None
        self._now: int | None = None
        self._order_now: list[Rank] | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[WorkingMemoryItem]:
        """The items in no particular order; `items()` sorts them by key."""
        return iter(self._items.values())

    def get(self, key: tuple[str, str, str]) -> WorkingMemoryItem | None:
        return self._items.get(key)

    def insert(self, fact: Fact, salience: float, tick: int, date: int | None = None) -> None:
        if not 0.0 <= salience <= 1.0:
            raise ValidationError(f"salience {salience} outside [0, 1]")
        if date is None:
            date = fact.tick
        if tick != self._now:
            self._now, self._order_now = tick, None
        order = self._order_now
        items = self._items
        key = fact.key()
        item = items.get(key)
        if item is not None:
            item.held = prevailing(item.held, fact)
            if date > item.date:
                item.date = date
            if salience > item.salience:
                item.salience = salience
            if tick > item.touched:
                item.touched = tick
            if order is not None:
                item.rank = (-item.salience, -item.touched, key)
            return
        rank = (-salience, -tick, key)
        if len(items) >= self.capacity:
            if order is None:
                order = self._order_now = self._build_order(tick)
            self._settle(order)
            if rank > order[-1]:
                return
            del items[order.pop()[2]]
        items[key] = WorkingMemoryItem(fact, date, salience, tick, rank)
        if order is not None:
            insort(order, rank)

    def _settle(self, order: list[Rank]) -> None:
        """Move stale last entries to their items' ranks until the last
        entry is its item's rank, the worst of all."""
        items = self._items
        last = order[-1]
        rank = items[last[2]].rank
        while rank != last:
            order.pop()
            insort(order, rank)
            last = order[-1]
            rank = items[last[2]].rank

    def _build_order(self, now: int) -> list[Rank]:
        """Store every item's rank at tick `now`; return them ascending."""
        order = []
        for rank, item in self._ranked(now):
            item.rank = rank
            order.append(rank)
        order.sort()
        return order

    def _ranked(self, now: int) -> Iterator[tuple[Rank, WorkingMemoryItem]]:
        """(rank at tick `now`, item) for every item: smaller ranks first
        once sorted, and no two items share a rank."""
        decay = self.decay
        powers: dict[int, float] = {}
        for key, item in self._items.items():
            touched = item.touched
            age = now - touched if now > touched else 0
            power = powers.get(age)
            if power is None:
                power = powers[age] = decay ** age
            yield (-(item.salience * power), -touched, key), item

    def snapshot_facts(self) -> list[Fact]:
        """Facts at their dates in canonical (identity key) order; byte-stable."""
        return [self._items[k].fact for k in sorted(self._items)]

    def items(self) -> list[WorkingMemoryItem]:
        return [self._items[k] for k in sorted(self._items)]


@dataclass
class Episode:
    """One decision cycle. Its steps are the trace's tick rows with
    `start_tick < tick <= end_tick`, which hold their results and anomalies;
    `planner_error` is `(code, detail)` if the planner failed, else None."""
    task_kind: str
    task_params: dict[str, str]
    plan_steps: list[dict[str, object]]
    planner_error: tuple[str, str] | None
    outcome: str  # success | failure | aborted
    start_tick: int
    end_tick: int

    def summary(self) -> dict[str, object]:
        return {
            "task": self.task_kind,
            "params": {k: self.task_params[k] for k in sorted(self.task_params)},
            "plan": self.plan_steps,
            "planner_error": self.planner_error,
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
