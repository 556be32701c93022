#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent and a change.

Collect pairs of runs from two checkouts that hold the same benchmark
files, alternating which side runs first in each pair:

    python3 perfbench/compare.py collect --parent ../a --change ../b --pairs 10 --out results/

then judge every (workload, metric):

    python3 perfbench/compare.py report results/parent.jsonl results/change.jsonl

For each pair both sides run the same workload with the same seed; each
pair gets its own seed. The report gives each side's median and
quartiles, the pairs the change won, and a verdict:

* improved   - the change wins at least 9 of every 10 pairs and the
               medians differ by more than the parent's interquartile range;
* worse      - the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
* unresolved - the spread of either side is wider than that bound (and
               the change does not beat the parent on every run);
* within     - none of these: no regression beyond the bound.

Per-layer metrics have no bound; they can only be called improved.
It also reports operations attempted and failed per workload and side.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1000  # pair i runs seed FIRST_SEED + i on both sides


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return {"spec": spec, "metrics": metrics}


def same_benchmark(a: str, b: str, paths: list[str]) -> bool:
    for rel in paths:
        cmp = filecmp.dircmp(os.path.join(a, rel), os.path.join(b, rel), ignore=["__pycache__"])
        stack = [cmp]
        while stack:
            d = stack.pop()
            if d.left_only or d.right_only or d.diff_files or d.funny_files:
                return False
            stack.extend(d.subdirs.values())
    return True


def collect(args) -> int:
    spec = load_spec()["spec"]
    if not same_benchmark(args.parent, args.change, spec["paths"]):
        print("error: the two checkouts hold different benchmark files", file=sys.stderr)
        return 2
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    paths = {side: os.path.join(args.out, f"{side}.jsonl") for side in ("parent", "change")}
    if any(os.path.exists(path) for path in paths.values()):
        print(f"error: {args.out} already holds results; choose a new --out", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    outputs = {side: open(path, "w", encoding="utf-8") for side, path in paths.items()}
    try:
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in names:
                for side in order:
                    cmd = list(spec["command"]) + [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                    ]
                    proc = subprocess.run(
                        cmd, cwd=getattr(args, side), capture_output=True, text=True, timeout=900
                    )
                    if proc.returncode != 0:
                        print(proc.stderr, file=sys.stderr)
                        return proc.returncode
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    record = {"workload": workload, "pair": pair, "seed": seed,
                              "first": order[0], "trace": args.trace, "result": result}
                    outputs[side].write(json.dumps(record) + "\n")
                    outputs[side].flush()
                    print(f"pair {pair} {workload:8s} {side:6s} done", file=sys.stderr)
    finally:
        for fh in outputs.values():
            fh.close()
    return 0


def read_set(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if wins >= math.ceil(0.9 * len(parent)) and gain > 0 and abs(cm - pm) > p3 - p1:
        return "improved", wins
    if bound is None:
        return "-", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p3 - p1, c3 - c1) > bound * abs(pm) and not every_run_better:
        return "unresolved", wins
    return "within", wins


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def report(args) -> int:
    metrics = load_spec()["metrics"]
    sets = {"parent": read_set(args.parent_set), "change": read_set(args.change_set)}
    values: dict[tuple[str, str], dict[str, dict[int, float]]] = {}
    ops: dict[tuple[str, str], list[int]] = {}
    incorrect = []
    for side, records in sets.items():
        for r in records:
            w, res = r["workload"], r["result"]
            tally = ops.setdefault((w, side), [0, 0])
            tally[0] += res["attempted"]
            tally[1] += res["failed"]
            if not res["correct"]:
                incorrect.append(f"{side} {w} pair {r['pair']}")
            for name, m in res["metrics"].items():
                values.setdefault((w, name), {}).setdefault(side, {})[r["pair"]] = m["value"]
    worse = 0
    header = f"{'workload':9s} {'metric':30s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} wins  verdict"
    print(header)
    for (w, name), sides in sorted(values.items()):
        if name not in metrics or set(sides) != {"parent", "change"}:
            continue
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        parent = [sides["parent"][p] for p in pairs]
        change = [sides["change"][p] for p in pairs]
        better, bound = metrics[name]
        call, wins = verdict(parent, change, better, bound)
        worse += call == "worse"
        print(f"{w:9s} {name:30s} {_fmt(quartiles(parent)):>34s} {_fmt(quartiles(change)):>34s} "
              f"{wins:2d}/{len(pairs):<2d} {call}")
        if len(pairs) < 10:
            print(f"{'':9s} (only {len(pairs)} pairs; a verdict needs at least 10)")
    print("\noperations attempted / failed")
    for (w, side), (attempted, failed) in sorted(ops.items()):
        print(f"{w:9s} {side:6s} {attempted:8d} {failed:6d}  ({failed / max(1, attempted):.4%})")
    for line in incorrect:
        print(f"INCORRECT: {line}")
    return 1 if worse or incorrect else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run pairs of parent and change")
    c.add_argument("--parent", required=True, help="checkout of the parent commit")
    c.add_argument("--change", required=True, help="checkout of the change")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    r = sub.add_parser("report", help="judge two result sets")
    r.add_argument("parent_set")
    r.add_argument("change_set")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
