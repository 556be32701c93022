#!/usr/bin/env python3
"""Benchmark of the gridmind tick loop, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One process runs one workload, single-threaded and closed-loop: each
operation (one ``run_scenario`` call or one ``trace.replay``) starts when
the previous one has ended. The process repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every
result (see checks.py), and prints a table and, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Times are
scaled to a fixed host speed (see hostspeed.py). With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see tracer.py); the traced run also writes its spans to
``.perfbench_work/spans-<workload>.jsonl``. ``--workload all`` runs each workload traced and
untraced in fresh processes and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import checks
import hostspeed
import workloads
from tracer import Patches, Recorder, TickProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("bundled", "crowded", "traffic")
SETUP_PROCESSES = 7  # fresh processes timed per run; the median is reported
SETUP_KERNELS = 50  # reference kernel runs that gauge the host's speed in a set-up process
now = time.perf_counter


def metric_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_engine():
    sys.path.insert(0, SRC)
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

    return gridmind


@dataclass
class Input:
    name: str
    text: str
    scenario: object
    config: object


def prepare(gm, workload: str, seed: int, workdir: str | None) -> list[Input]:
    """Make (or read), parse and interpret the workload's scenarios.

    Generated files are written into `workdir` so that replay can read
    them back; with no workdir nothing is written (set-up timing).
    """
    sources: list[tuple[str, str | None, str]] = []
    if workload == "bundled":
        for name in workloads.bundled_order(seed):
            path = os.path.join(workloads.bundled_dir(ROOT), name + ".scn")
            with open(path, encoding="utf-8") as fh:
                sources.append((name, path, fh.read()))
        sources.append((workloads.LTM_VARIANT, None, workloads.ltm_variant_text(ROOT)))
    elif workload == "crowded":
        sources.append(("crowded", None, workloads.crowded_text(seed)))
    else:
        sources.append(("traffic", None, workloads.traffic_text(seed)))
    inputs = []
    for name, path, text in sources:
        if path is None and workdir is not None:
            path = os.path.join(workdir, name + ".scn")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        scenario = gm.world.parse_scenario(text, path)
        config = gm.config.EngineConfig()
        if scenario.config_overrides:
            config = config.with_overrides(dict(scenario.config_overrides))
        for spec in scenario.tasks:
            gm.decide.interpret_task(spec, scenario)
        inputs.append(Input(name, text, scenario, config))
    return inputs


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: time a fresh process's set-up and print it as JSON."""
    t0 = now()
    gm = import_engine()
    t1 = now()
    gm.agent.RuleData.load_default()
    t2 = now()
    prepare(gm, workload, seed, None)
    t3 = now()
    k = hostspeed.scale([hostspeed.timed_kernel() for _ in range(SETUP_KERNELS)])
    print(json.dumps({"rules_s": k * (t2 - t1), "scenario_s": k * (t3 - t2), "total_s": k * (t3 - t0)}))
    return 0


def setup_sample(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Tally:
    """Operation outcomes and timings, keyed by operation label."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # per operation label, each repeat's seconds outside its
    # AgentRuntime.tick calls (planning, trace assembly, comparison ...)
    rest_s: dict[str, list[float]] = field(default_factory=dict)
    # per (operation label, tick number), each repeat's seconds
    tick_s: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    ticks: dict[str, int] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    setup: list[dict[str, float]] = field(default_factory=list)


class Bench:
    def __init__(self, gm, workload, seed, workdir, recorder, probe):
        self.gm, self.workload, self.seed = gm, workload, seed
        self.workdir, self.rec, self.probe = workdir, recorder, probe
        self.rules = gm.agent.RuleData.load_default()
        self.inputs = prepare(gm, workload, seed, workdir)
        self.tables = (checks.load_exclusions(ROOT), checks.load_composition(ROOT))
        self.tally = Tally()
        self._rests: list[tuple[str, float]] = []  # this round's, not yet scaled

    def _enter(self, label: str | None, phase: str) -> None:
        if label is not None:
            # every repeat starts from an empty collector, so the cyclic
            # collections inside an operation fall on the same ticks in
            # every round instead of wherever earlier rounds left them
            gc.collect()
        self.probe.label = label
        if self.rec is not None:
            self.rec.phase = phase

    def _timed(self, label: str, seconds: float, first_sample: int) -> None:
        # the reference kernel runs between ticks, inside `seconds`
        in_ticks = sum(s[2] + s[3] for s in self.probe.samples[first_sample:])
        self._rests.append((label, seconds - in_ticks))

    def run(self, inp: Input, ltm_lines=None, tag=""):
        """One scenario run: timed, checked, hashed and written out."""
        tally, label = self.tally, inp.name + tag
        tally.attempted += 1
        self._enter(label, "run")
        first_sample = len(self.probe.samples)
        try:
            t0 = now()
            result = self.gm.agent.run_scenario(
                inp.scenario, inp.config, self.seed, self.gm.agent.scripted_planner_factory,
                scenario_text=inp.text, data=self.rules, ltm_lines=ltm_lines,
            )
            elapsed = now() - t0
            if self.rec is not None:
                self.rec.count("memory.ltm_facts", len(result.runtime.ltm.semantic))
                self.rec.count("trace.bytes", sum(len(line.encode()) + 1 for line in result.lines))
        except Exception:
            tally.failed += 1
            tally.errors.append(f"{label}: run raised\n{traceback.format_exc()}")
            return None, None
        finally:
            self._enter(None, "idle")
        self._timed(label, elapsed, first_sample)
        tally.ticks[label] = result.runtime.world.tick
        generated = self.workload != "bundled"
        try:
            checks.check_run(inp.name, result, inp.text, self.tables, generated)
        except checks.CheckFailed as exc:
            tally.errors.append(f"{label}: {exc}")
        digest = hashlib.sha256("\n".join(result.lines).encode()).hexdigest()
        if digest != tally.hashes.setdefault(label, digest):
            tally.errors.append(f"{label}: trace differs from the first run with this seed")
        path = os.path.join(self.workdir, label + ".trace")
        self.gm.trace.write_trace(path, result.lines)
        return result, path

    def replay(self, path: str, known_fault: bool = False) -> None:
        """One replay. `known_fault`: the LTM-seeded trace, whose header
        records no LTM seed, so the replay starts from an empty LTM and
        diverges at line 2 ($.wm); that is counted as a failed operation."""
        tally = self.tally
        label = os.path.basename(path)[: -len(".trace")] + "/replay"
        tally.attempted += 1
        self._enter(label, "replay")
        first_sample = len(self.probe.samples)
        try:
            t0 = now()
            report = self.gm.trace.replay(path)
            self._timed(label, now() - t0, first_sample)
        except Exception:
            tally.failed += 1
            tally.errors.append(f"{label}: replay raised\n{traceback.format_exc()}")
            return
        finally:
            self._enter(None, "idle")
        if report.equal:
            return
        tally.failed += 1
        if not (known_fault and report.divergence_line == 2 and report.divergence_path == "$.wm"):
            tally.errors.append(f"{label}: {report.describe()}")

    def round(self) -> None:
        """One round of operations; its times are scaled to the reference
        speed by the kernel times measured between its ticks."""
        first_sample = len(self.probe.samples)
        self._rests.clear()
        self._operations()
        samples = self.probe.samples[first_sample:]
        k = hostspeed.scale([s[3] for s in samples])
        for label, tick, seconds, _ in samples:
            self.tally.tick_s.setdefault((label, tick), []).append(k * seconds)
        for label, seconds in self._rests:
            self.tally.rest_s.setdefault(label, []).append(k * seconds)

    def _operations(self) -> None:
        for inp in self.inputs:
            if inp.name == workloads.LTM_VARIANT:
                # a first run saves its semantic LTM; a second run starts
                # from that snapshot, as `gridmind run --ltm-load` would
                first, _ = self.run(inp)
                if first is None:
                    continue
                snapshot = [line + "\n" for line in first.runtime.ltm.semantic.to_lines()]
                _, path = self.run(inp, ltm_lines=snapshot, tag="-seeded")
                if path is not None:
                    self.replay(path, known_fault=True)
                continue
            _, path = self.run(inp)
            if path is not None:
                self.replay(path)

    def measure(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed. The set-up probes are
        spread over the same time, between rounds, so that their median
        sees the machine as the rounds do."""
        start = now()
        setup = self.tally.setup

        def probes_due() -> None:
            while len(setup) < SETUP_PROCESSES and now() >= start + len(setup) * seconds / SETUP_PROCESSES:
                setup.append(setup_sample(self.workload, self.seed))

        probes_due()
        while True:
            self.round()
            probes_due()
            if now() >= start + seconds:
                break
        while len(setup) < SETUP_PROCESSES:
            setup.append(setup_sample(self.workload, self.seed))


def median_of(samples: dict) -> dict:
    """Median repeat per key. The same operation or tick repeats in every
    round; scaled to the reference speed, its median repeat is steady from
    run to run, where the fastest repeat would pick out whichever round
    the kernel happened to read slow in."""
    return {key: statistics.median(values) for key, values in samples.items()}


def end_to_end(tally: Tally) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, number of samples behind it).

    An operation's time is the sum of its ticks' and its remainder's
    median repeats, so a disturbance shorter than the operation costs
    only the part it hit."""
    ticks = median_of(tally.tick_s)
    ticks_ms = sorted(1000 * s for s in ticks.values())
    op_s = median_of(tally.rest_s)
    for (label, _), seconds in ticks.items():
        if label in op_s:  # an operation that raised has no total
            op_s[label] += seconds
    runs = {label: s for label, s in op_s.items() if not label.endswith("/replay")}
    replays = [s for label, s in op_s.items() if label.endswith("/replay")]
    return {
        "setup_s": (statistics.median(s["total_s"] for s in tally.setup), len(tally.setup)),
        "tick_ms_p50": (statistics.median(ticks_ms), len(ticks_ms)),
        "tick_ms_p90": (statistics.quantiles(ticks_ms, n=10, method="inclusive")[8], len(ticks_ms)),
        "ticks_per_s": (sum(tally.ticks.values()) / sum(runs.values()), len(runs)),
        "replay_s": (statistics.median(replays), len(replays)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def run_workload(args) -> int:
    gm = import_engine()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    patches = Patches()
    recorder = Recorder() if args.trace else None
    probe = TickProbe()
    try:
        if recorder is not None:
            recorder.install(patches, gm)
        probe.install(patches, gm)  # outermost, so traced ticks include the tracing
        bench = Bench(gm, args.workload, args.seed, workdir, recorder, probe)
        bench.measure(args.seconds)
    finally:
        patches.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    tally, units = bench.tally, metric_units()
    runs = sum(len(v) for k, v in tally.rest_s.items() if not k.endswith("/replay"))
    replays = sum(len(v) for k, v in tally.rest_s.items() if k.endswith("/replay"))
    if args.trace:
        layer = recorder.metrics(runs, replays, hostspeed.scale([s[3] for s in probe.samples]))
        layer["agent.tick_ms_p50"] = 1000 * statistics.median(median_of(tally.tick_s).values())
        layer["setup.rules_ms"] = 1000 * statistics.median(s["rules_s"] for s in tally.setup)
        layer["setup.scenario_ms"] = 1000 * statistics.median(s["scenario_s"] for s in tally.setup)
        recorder.write(os.path.join(WORK, f"spans-{args.workload}.jsonl"))
        rows = [(name, value, units[name], 0) for name, value in sorted(layer.items())]
    else:
        rows = [(name, v, units[name], n) for name, (v, n) in end_to_end(tally).items()]
    for error in tally.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={runs} replays={replays}")
    for name, value, unit, n in rows:
        print(f"{name:32s} {value:14.6f} {unit:8s}" + (f" n={n}" if n else ""))
    if not args.trace:
        print(f"# tick_ms_*: n tick positions, each the median of its repeats; "
              f"{len(probe.samples)} tick samples in all")
    print(f"{'operations attempted':32s} {tally.attempted:7d}   failed {tally.failed}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    overheads = []
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        ok = ok and all(r["correct"] for r in results)
        plain = results[0]["metrics"]["tick_ms_p50"]["value"]
        traced = results[1]["metrics"]["agent.tick_ms_p50"]["value"]
        overheads.append((workload, plain, traced))
    print("# tracing overhead (median tick, untraced -> traced)")
    for workload, plain, traced in overheads:
        print(f"{workload:10s} {plain:10.3f} ms -> {traced:10.3f} ms  ({100 * (traced / plain - 1):+.1f}%)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gridmind", "agent.py")):
        print(f"error: no gridmind sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
