"""Working memory and long-term memory for the decision loop.

Working memory is a capacity-limited buffer ordered by decayed salience;
long-term memory holds a persistent unified semantic graph plus an
append-only episodic log of completed decision cycles. Consolidation moves
confident perceived/derived facts from WM into semantic LTM after every
episode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .kb import Atom, Fact, SemanticGraph, ValidationError, is_var


@dataclass
class WorkingMemoryItem:
    fact: Fact
    salience: float
    inserted: int
    touched: int

    def effective_salience(self, now: int, decay: float) -> float:
        age = max(0, now - self.touched)
        return self.salience * (decay ** age)


class WorkingMemory:
    """Salience-ordered buffer, never larger than its capacity.

    Order (best first): effective salience desc, last-touched desc,
    identity key asc. Eviction removes the worst-ordered item, found by one
    linear scan for the largest rank rather than by sorting; the rank ends
    in the unique identity key, so it has no ties and the scan picks the
    item a full sort would put last.
    """

    def __init__(self, capacity: int = 64, decay: float = 0.95) -> None:
        if capacity < 1:
            raise ValidationError("working memory capacity must be >= 1")
        self.capacity = capacity
        self.decay = decay
        self._items: dict[tuple[str, str, str], WorkingMemoryItem] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._items

    def get(self, key: tuple[str, str, str]) -> WorkingMemoryItem | None:
        return self._items.get(key)

    def insert(self, fact: Fact, salience: float, tick: int) -> None:
        if not 0.0 <= salience <= 1.0:
            raise ValidationError(f"salience {salience} outside [0, 1]")
        fact.validate()
        key = fact.key()
        existing = self._items.get(key)
        if existing is not None:
            merged_tick = max(existing.fact.tick, fact.tick)
            keep = fact if fact.confidence > existing.fact.confidence else existing.fact
            existing.fact = replace(keep, tick=merged_tick)
            existing.salience = max(existing.salience, salience)
            existing.touched = max(existing.touched, tick)
            return
        self._items[key] = WorkingMemoryItem(
            fact=fact, salience=salience, inserted=tick, touched=tick
        )
        while len(self._items) > self.capacity:
            worst = max(self._items.values(), key=self._rank(tick))
            del self._items[worst.fact.key()]

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

    def ages(self, now: int) -> dict[tuple[str, str, str], int]:
        return {key: now - item.touched for key, item in sorted(self._items.items())}


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
        self.semantic = SemanticGraph("unified")
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
    index = ltm.semantic.by_relation()
    results = [f for f in index.get(pattern.relation, []) if _matches(pattern, f)]
    results.sort(key=lambda f: (-f.confidence, -f.tick, f.key()))
    return results[:k]


def _matches(pattern: Atom, fact: Fact) -> bool:
    if pattern.relation != fact.relation:
        return False
    if not is_var(pattern.subject) and pattern.subject != fact.subject:
        return False
    if not is_var(pattern.obj) and pattern.obj != fact.obj:
        return False
    return True


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
