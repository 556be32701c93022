"""Outside-in spans around the engine's public functions.

Each patch replaces a function at the name its caller looks it up by
(``gridmind.agent.aggregate``, ``gridmind.cognition.detect_contradictions``,
``gridmind.memory.WorkingMemory.insert`` ...) with a wrapper that records a
span: name, start, end, parent span and the enclosing ``agent.tick`` span.
Spans stay in memory until the run ends. ``uninstall`` puts every
original back.

Both runs time every ``AgentRuntime.tick`` with ``TickProbe``; the traced
run installs it outside the ``Recorder``'s own tick span, so its tick
times include the cost of tracing and compare with the untraced ones
position for position. The per-layer times are scaled to the reference
speed by the run's median kernel time (see hostspeed.py).
"""

from __future__ import annotations

import functools
import json
import time

from hostspeed import timed_kernel

now = time.perf_counter

# per-tick layers whose self times, with agent.other_ms, make up agent.tick_ms
TICK_LAYERS = (
    "world.step",
    "world.observe",
    "perceive.temporal",
    "perceive.spatial",
    "perceive.conceptual",
    "perceive.bind",
    "perceive.graphs",
    "reason.dependency",
    "reason.concepts",
    "reason.compose",
    "reason.closure",
    "reason.trajectory",
    "reason.predict",
    "cognition.aggregate",
    "cognition.contradictions",
    "cognition.hazards",
    "metacog.monitor",
    "metacog.regulate",
    "memory.wm_insert",
)
TICK_COUNTS = (
    "perceive.facts",
    "kb.chain_iterations",
    "reason.compose_derived",
    "reason.collision_checks",
    "kb.unified_facts",
    "cognition.contradictions",
    "cognition.hazards",
    "metacog.anomalies",
    "metacog.directives",
    "memory.wm_inserts",
    "memory.wm_evictions",
)
RUN_LAYERS = ("memory.consolidate", "decide.query", "decide.plan", "trace.encode")
RUN_COUNTS = ("decide.cycles", "memory.ltm_facts", "trace.bytes")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class TickProbe:
    """Wall time of every AgentRuntime.tick made while `label` is set.

    A sample is (operation label, tick number, seconds, kernel seconds);
    the engine is deterministic, so a label and tick number name the same
    work in every round. After each tick the reference kernel runs once,
    and its time measures the host's speed around that tick.
    """

    def __init__(self) -> None:
        self.label: str | None = None
        self.samples: list[tuple[str, int, float, float]] = []

    def install(self, patches: Patches, gm) -> None:
        def make(tick):
            @functools.wraps(tick)
            def timed(runtime, action):
                if self.label is None:
                    return tick(runtime, action)
                t0 = now()
                outcome = tick(runtime, action)
                seconds = now() - t0
                self.samples.append((self.label, runtime.world.tick, seconds, timed_kernel()))
                return outcome

            return timed

        patches.replace(gm.agent.AgentRuntime, "tick", make)


class Recorder:
    """Span and counter store for one traced process.

    A span is (name, start, end, self seconds, parent id, tick id, phase);
    its id is its index. `phase` is "run" inside the benchmark's own
    run_scenario calls and "replay" inside trace.replay. Replays are traced
    like runs; the per-layer figures read only the phase they describe.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, float, int, str]] = []
        self.phase = "setup"
        self.tick = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._new_keys: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans), name, now(), 0.0])
        self.spans.append(None)  # reserves the id; filled in by end()

    def end(self) -> None:
        end = now()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        tick = span_id if name == "agent.tick" else self.tick
        self.spans[span_id] = (name, start, end, duration - child, parent, tick, self.phase)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.tick, self.phase))

    def wrap(self, name: str, counter=None):
        """Patch factory: time calls as `name`; `counter(out)` yields counts."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end()
                if counter is not None:
                    for key, value in counter(out):
                        self.count(key, value)
                return out

            return traced

        return make

    # -- patches --------------------------------------------------------------

    def install(self, patches: Patches, gm) -> None:
        agent, reason, perceive = gm.agent, gm.reason, gm.perceive
        cognition, metacog, decide = gm.cognition, gm.metacog, gm.decide
        wrap = self.wrap
        patches.replace(agent.AgentRuntime, "tick", self._tick_patch)
        patches.replace(gm.world.WorldState, "step", wrap("world.step"))
        patches.replace(gm.world.WorldState, "observe", wrap("world.observe"))
        patches.replace(perceive, "extract_temporal", wrap("perceive.temporal"))
        patches.replace(perceive, "extract_spatial", wrap("perceive.spatial"))
        patches.replace(perceive, "extract_conceptual", wrap("perceive.conceptual"))
        patches.replace(perceive, "attend_and_bind", wrap("perceive.bind"))
        patches.replace(
            perceive,
            "build_dimension_graphs",
            wrap("perceive.graphs", lambda out: [("perceive.facts", sum(map(len, out[:3])))]),
        )
        patches.replace(reason, "apply_dependency_rules", wrap("reason.dependency"))
        patches.replace(reason, "infer_concepts", wrap("reason.concepts"))
        patches.replace(
            reason,
            "compose_spatial",
            wrap("reason.compose", lambda out: [("reason.compose_derived", len(out))]),
        )
        patches.replace(reason, "order_from_events", wrap("reason.closure"))
        patches.replace(reason, "temporal_closure", wrap("reason.closure"))
        patches.replace(reason, "predict_trajectory", wrap("reason.trajectory"))
        patches.replace(
            reason,
            "detect_collision",
            wrap("reason.trajectory", lambda out: [("reason.collision_checks", 1)]),
        )
        patches.replace(reason, "predict_next", wrap("reason.predict"))
        for module in (reason, cognition):  # forward_chain is counted, not timed
            patches.replace(module, "forward_chain", self._chain_counter)
        patches.replace(
            agent,
            "aggregate",
            wrap("cognition.aggregate", lambda out: [("kb.unified_facts", len(out.graph))]),
        )
        patches.replace(
            cognition,
            "detect_contradictions",
            wrap("cognition.contradictions", lambda out: [("cognition.contradictions", len(out))]),
        )
        patches.replace(
            agent,
            "assess_hazards",
            wrap("cognition.hazards", lambda out: [("cognition.hazards", len(out))]),
        )
        patches.replace(
            metacog, "monitor", wrap("metacog.monitor", lambda out: [("metacog.anomalies", len(out))])
        )
        patches.replace(
            metacog,
            "regulate",
            wrap("metacog.regulate", lambda out: [("metacog.directives", len(out[0]))]),
        )
        patches.replace(gm.memory.WorkingMemory, "insert", self._insert_patch)
        patches.replace(agent, "consolidate", wrap("memory.consolidate"))
        patches.replace(
            decide, "formulate_query", wrap("decide.query", lambda out: [("decide.cycles", 1)])
        )
        patches.replace(decide, "plan_scripted", wrap("decide.plan"))
        patches.replace(gm.canonical, "dumps", wrap("trace.encode"))
        patches.replace(gm.trace, "parse_trace", wrap("trace.compare"))
        patches.replace(gm.trace, "compare_lines", wrap("trace.compare"))

    def _tick_patch(self, tick):
        @functools.wraps(tick)
        def traced(runtime, action):
            outer, new_keys = self.tick, self._new_keys
            self._new_keys = []
            self.begin("agent.tick")
            self.tick = self._stack[-1][0]
            try:
                return tick(runtime, action)
            finally:
                self.end()
                kept = sum(1 for key in self._new_keys if key in runtime.wm)
                self.count("memory.wm_new", len(self._new_keys))
                self.count("memory.wm_kept", kept)
                self.tick, self._new_keys = outer, new_keys

        return traced

    def _insert_patch(self, insert):
        @functools.wraps(insert)
        def traced(wm, fact, *args, **kwargs):
            key = fact.key()
            new = key not in wm
            size = len(wm)
            self.begin("memory.wm_insert")
            try:
                insert(wm, fact, *args, **kwargs)
            finally:
                self.end()
            self.count("memory.wm_inserts", 1)
            self.count("memory.wm_evictions", size + new - len(wm))
            if new and self.tick >= 0:
                self._new_keys.append(key)

        return traced

    def _chain_counter(self, forward_chain):
        @functools.wraps(forward_chain)
        def counted(*args, **kwargs):
            result = forward_chain(*args, **kwargs)
            self.count("kb.chain_iterations", result.iterations)
            return result

        return counted

    # -- results ---------------------------------------------------------------

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "self", "parent", "tick", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, runs: int, replays: int, scale: float) -> dict[str, float]:
        """Per-layer figures: per tick, per run or per replay (see README);
        times are multiplied by `scale` and given in ms."""
        ms = 1000 * scale
        run_spans = [s for s in self.spans if s[6] == "run"]
        ticks = [s for s in run_spans if s[0] == "agent.tick"]
        n_ticks = len(ticks)
        tick_self: dict[str, float] = {name: 0.0 for name in TICK_LAYERS}
        run_self: dict[str, float] = {name: 0.0 for name in RUN_LAYERS}
        for name, _, _, self_s, _, tick, _ in run_spans:
            if tick >= 0 and name in tick_self:
                tick_self[name] += self_s
            if name in run_self:
                run_self[name] += self_s
        tick_counts: dict[str, float] = {name: 0 for name in TICK_COUNTS}
        tick_counts["memory.wm_new"] = tick_counts["memory.wm_kept"] = 0
        run_counts: dict[str, float] = {name: 0 for name in RUN_COUNTS}
        for name, value, tick, phase in self.counts:
            if phase != "run":
                continue
            if tick >= 0 and name in tick_counts:
                tick_counts[name] += value
            if name in run_counts:
                run_counts[name] += value
        tick_total = sum(s[2] - s[1] for s in ticks)
        out: dict[str, float] = {}
        for name, total in tick_self.items():
            out[name + "_ms"] = ms * total / n_ticks
        out["agent.other_ms"] = ms * (tick_total - sum(tick_self.values())) / n_ticks
        out["agent.tick_ms"] = ms * tick_total / n_ticks
        for name in TICK_COUNTS:
            out[name] = tick_counts[name] / n_ticks
        out["memory.wm_kept_ratio"] = tick_counts["memory.wm_kept"] / max(1, tick_counts["memory.wm_new"])
        for name, total in run_self.items():
            out[name + "_ms"] = ms * total / runs
        for name in RUN_COUNTS:
            out[name] = run_counts[name] / runs
        compare = sum(s[3] for s in self.spans if s[6] == "replay" and s[0] == "trace.compare")
        out["trace.compare_ms"] = ms * compare / replays
        return out
