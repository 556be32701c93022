"""perfbench's tracer patches engine functions by the names they are looked
up by. This guard installs its patches, runs a bundled scenario and checks
that the per-tick fact counts it takes still read what they mean: every
fact perceived on a tick is one fact of that tick's unified graph, since
the bundled scenarios assert no facts, and the working-memory counts equal
the calls to `WorkingMemory.insert` however they are made, and the items
those calls evict. A rename or reshape that breaks `perfbench/run.py
--trace 1`, or routes inserts around the name the tracer patches, fails
here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# the tracer patches these modules as attributes of the package
import gridmind.agent
import gridmind.canonical
import gridmind.cognition
import gridmind.decide
import gridmind.memory
import gridmind.metacog
import gridmind.perceive
import gridmind.reason
import gridmind.trace
import gridmind.world
from conftest import run_bundled

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_every_perceived_fact_once_in_the_unified_graph(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Patches, Recorder

    recorder, patches = Recorder(), Patches()
    recorder.install(patches, gridmind)
    recorder.phase = "run"
    try:
        result = run_bundled("fetch_close")
    finally:
        patches.uninstall()
    assert not result.runtime.scenario.facts

    per_tick: dict[int, dict[str, float]] = {}
    for name, value, tick, _ in recorder.counts:
        if tick >= 0 and name in ("perceive.facts", "kb.unified_facts"):
            per_tick.setdefault(tick, {})[name] = value
    assert len(per_tick) == result.runtime.world.tick
    for counts in per_tick.values():
        assert counts["perceive.facts"] == counts["kb.unified_facts"] > 0


# fetch_close never fills working memory; arrange evicts hundreds of items
@pytest.mark.parametrize("name, evicts", [("fetch_close", False), ("arrange", True)])
def test_tracer_counts_every_working_memory_insert_and_eviction(monkeypatch, name, evicts):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Patches, Recorder

    # counted by the code that runs, not by the name it is reached through
    code = gridmind.memory.WorkingMemory.insert.__code__
    calls: list[set] = []  # per call, the keys held and the key inserted
    evicted = 0

    def profile(frame, event, arg):
        nonlocal evicted
        if event not in ("call", "return") or frame.f_code is not code:
            return
        wm = frame.f_locals["self"]
        held = {item.fact.key() for item in wm.items()}
        if event == "call":
            calls.append(held | {frame.f_locals["fact"].key()})
        else:
            evicted += len(calls[-1] - held)

    recorder, patches = Recorder(), Patches()
    recorder.install(patches, gridmind)
    recorder.phase = "run"
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_bundled(name)
    finally:
        sys.setprofile(previous)
        patches.uninstall()

    totals = {"memory.wm_inserts": 0, "memory.wm_evictions": 0}
    for counter, value, _, _ in recorder.counts:
        if counter in totals:
            totals[counter] += value
    assert totals == {"memory.wm_inserts": len(calls), "memory.wm_evictions": evicted}
    assert len(calls) > 0 and (evicted > 0) == evicts
