"""perfbench's tracer patches engine functions by the names they are looked
up by. This guard installs its patches, runs a bundled scenario and checks
that the per-tick fact counts it takes still read what they mean: every
fact perceived on a tick is one fact of that tick's unified graph, since
the bundled scenarios assert no facts. A rename or reshape that breaks
`perfbench/run.py --trace 1` fails here first.
"""

from __future__ import annotations

from pathlib import Path

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
