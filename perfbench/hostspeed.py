"""The host's current speed, from a fixed reference kernel.

The VMs this benchmark runs on slow the same code down by up to about
1.7x for stretches of seconds to more than a minute, as other tenants
come and go. A fixed pure-Python kernel, timed between the engine's
ticks, slows down with it: over one round of a workload, engine time
divided by kernel time stays within a few per cent while the engine time
alone moves by 50 % or more. So every timing is scaled by
``REFERENCE_S / kernel time``, measured over the same stretch, and reads
as the time it would take on the host at its quiet speed.

The kernel does the kind of work a tick does: tuple keys in dicts,
sorting, pairwise comparison of facts and string joins.
"""

from __future__ import annotations

import statistics
import time

# about the median kernel time on the quiet build host (2 vCPUs, Python
# 3.11.7); only ratios to it matter, so it never changes with the engine
REFERENCE_S = 0.000100

_RELATIONS = ("LeftOf", "RightOf", "Near", "isa", "color", "at")
_OPPOSITE = {("LeftOf", "RightOf"), ("RightOf", "LeftOf")}
_FACTS = [(f"e{i % 11}", _RELATIONS[i % 6], f"o{i % 13}", 1.0 - (i % 5) / 10, i) for i in range(30)]


def kernel() -> int:
    keys = {}
    for s, r, o, c, t in _FACTS:
        keys[(s, r, "%s" % o)] = (s, r, o, c, t)
    items = sorted(keys)
    found = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a[0] == b[0] and a[2] == b[2] and (a[1], b[1]) in _OPPOSITE:
                found += 1
            elif "|".join(a) == "|".join(b):
                found -= 1
    ordered = sorted(keys.values(), key=lambda f: (-f[3], -f[4], f[0]))
    return found + len(ordered)


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_seconds) -> float:
    """Factor that turns times measured alongside these kernel times into
    times at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_seconds)
