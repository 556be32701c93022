"""Working memory and long-term memory for the decision loop.

Working memory is a capacity-limited buffer ordered by decayed salience;
long-term memory holds a persistent unified semantic graph plus an
append-only episodic log of completed decision cycles. Consolidation moves
confident perceived/derived facts from WM into semantic LTM after every
episode.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, replace

from .kb import Atom, Fact, SemanticGraph, ValidationError, match


@dataclass
class WorkingMemoryItem:
    fact: Fact
    salience: float
    touched: int

    def effective_salience(self, now: int, decay: float) -> float:
        age = max(0, now - self.touched)
        return self.salience * (decay ** age)


class WorkingMemory:
    """Salience-ordered buffer, never larger than its capacity.

    Order (best first): effective salience desc, last-touched desc,
    identity key asc; the rank ends in the unique identity key, so it has
    no ties. Eviction removes the worst-ordered item.

    Within one tick no rank changes except that of the item an insert
    touches, so the first eviction at tick `t` sorts the ranks of all
    items once into an ascending list, and every eviction at `t` pops its
    last entry. While that order belongs to `t`, each insert at `t` keeps
    it current: a new item's rank is insorted, and a merge removes the
    item's old rank before changing the item and insorts the new one. An
    insert at any other tick drops the order, evicting or not, since ranks
    decay with `now` and a merge at another tick would leave a stale rank.
    """

    def __init__(self, capacity: int = 64, decay: float = 0.95) -> None:
        if capacity < 1:
            raise ValidationError("working memory capacity must be >= 1")
        self.capacity = capacity
        self.decay = decay
        self._items: dict[tuple[str, str, str], WorkingMemoryItem] = {}
        # ascending ranks of all items at tick self._now, or None
        self._now: int | None = None
        self._order_now: list[tuple[float, int, tuple[str, str, str]]] | None = None

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
        rank = self._rank(tick)
        key = fact.key()
        existing = self._items.get(key)
        if existing is not None:
            if order is not None:
                del order[bisect_left(order, rank(existing))]
            merged_tick = max(existing.fact.tick, fact.tick)
            keep = fact if fact.confidence > existing.fact.confidence else existing.fact
            existing.fact = replace(keep, tick=merged_tick)
            existing.salience = max(existing.salience, salience)
            existing.touched = max(existing.touched, tick)
            if order is not None:
                insort(order, rank(existing))
            return
        item = self._items[key] = WorkingMemoryItem(fact=fact, salience=salience, touched=tick)
        if order is not None:
            insort(order, rank(item))
        elif len(self._items) > self.capacity:
            order = self._order_now = sorted(map(rank, self._items.values()))
        while len(self._items) > self.capacity:
            del self._items[order.pop()[2]]

    def ordered(self, now: int) -> list[WorkingMemoryItem]:
        return sorted(self._items.values(), key=self._rank(now))

    def _rank(self, now: int):
        """Sort key of an item at tick `now`: smaller ranks first."""
        decay = self.decay
        return lambda item: (
            -item.effective_salience(now, decay),
            -item.touched,
            item.fact.key(),
        )

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
