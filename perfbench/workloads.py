"""Scenario sources for the three benchmark workloads.

Every workload is a list of scenario files made from the workload seed;
the engine only ever sees those files. The generators use their own
``random.Random(seed)`` so the same seed always gives the same bytes.

* ``bundled``: the ten shipped scenarios in a seed-shuffled order, plus a
  generated copy of ``vase_room.scn`` with one extra asserted fact, used
  for the LTM-seeded run (see ``LTM_VARIANT``).
* ``crowded``: one 40x40 fetch scene with static fillers.
* ``traffic``: one 40x24 navigate scene with oscillating carts and lamps
  whose ``powered`` flag is set and cleared on a schedule.
"""

from __future__ import annotations

import os
import random

BUNDLED = (
    "arrange",
    "crossing",
    "driving_salience",
    "fetch_close",
    "hotcoffee",
    "knockover",
    "pickup_fail",
    "teleport_fault",
    "vase_room",
    "waterleak",
)

# vase_room plus an asserted fact that contradicts the perceived layout,
# so a contradiction anomaly pulls LTM facts into working memory.
LTM_VARIANT = "vase_room_ltm"
LTM_EXTRA_FACT = "fact bed1 LeftOf table1\n"

# crowded: two fillers stand in row 1, right of box1, so the final
# OnTopOf(ball1, box1) composes with LeftOf(box1, f). Every other filler has
# a row of its own in 4..35. All columns are distinct, lie in 4..35 and
# keep three cells off the diagonal the agent walks, and no two fillers
# touch. So no filler is ever Near another or the agent, the agent crosses
# every filler's row and column exactly twice, and every seed perceives
# the same number of facts over a run; only which ones differs.
CROWDED_SIZE = 40
CROWDED_FILLERS = 15
CROWDED_ROW1 = 2
# every filler category is a non-surface with exactly one affordance in
# affordances.txt, so each filler emits the same six facts
FILLER_CATEGORIES = ("cup", "mug", "plate", "bowl", "vase", "mop")
FILLER_COLORS = ("red", "blue", "green", "yellow", "white", "black")

# traffic: each cart owns a lane (row) and shuttles along it; even carts
# pause one tick at each end (closing a move event), odd carts reverse at
# once (a position prediction mismatch). Lamps toggle `powered`.
TRAFFIC_WIDTH = 40
TRAFFIC_HEIGHT = 24
TRAFFIC_CARTS = 14
TRAFFIC_LAMPS = 3
TRAFFIC_EVENT_HORIZON = 60  # ticks; the run needs 36


def bundled_dir(root: str) -> str:
    return os.path.join(root, "src", "gridmind", "data", "scenarios")


def bundled_order(seed: int) -> list[str]:
    order = list(BUNDLED)
    random.Random(seed).shuffle(order)
    return order


def ltm_variant_text(root: str) -> str:
    with open(os.path.join(bundled_dir(root), "vase_room.scn"), encoding="utf-8") as fh:
        return fh.read() + LTM_EXTRA_FACT


def crowded_text(seed: int) -> str:
    rng = random.Random(seed)
    size = CROWDED_SIZE
    lines = [
        f"# crowded fetch, seed {seed}",
        "version 1",
        f"grid {size} {size}",
        f"region room 0 0 {size - 1} {size - 1}",
        "agent robot1 1 1",
        "entity box1 3 1 category=box",
        f"entity ball1 {size - 3} {size - 3} category=ball",
    ]
    cells = _filler_cells(rng)
    for n, (x, y) in enumerate(cells):
        lines.append(
            f"entity f{n:02d} {x} {y} category={rng.choice(FILLER_CATEGORIES)}"
            f" color={rng.choice(FILLER_COLORS)} size={rng.randint(1, 5)}"
        )
    lines.append("task fetch object=ball1 to=box1")
    return "\n".join(lines) + "\n"


def _filler_cells(rng: random.Random) -> list[tuple[int, int]]:
    rows = [1] * CROWDED_ROW1 + sorted(rng.sample(range(4, 36), CROWDED_FILLERS - CROWDED_ROW1))
    while True:  # rejection sampling; a dead end restarts the layout
        cells: list[tuple[int, int]] = []
        for y in rows:
            options = [
                x
                for x in range(6 if y == 1 else 4, 36)
                if abs(x - y) >= 3
                and all(x != cx and max(abs(x - cx), abs(y - cy)) >= 2 for cx, cy in cells)
            ]
            if not options:
                break
            cells.append((rng.choice(options), y))
        else:
            return cells


def traffic_text(seed: int) -> str:
    rng = random.Random(seed)
    w, h = TRAFFIC_WIDTH, TRAFFIC_HEIGHT
    lines = [
        f"# traffic navigate, seed {seed}",
        "version 1",
        f"grid {w} {h}",
        f"region street 0 0 {w - 1} {h - 1}",
        "agent robot1 1 1",
        f"entity marker1 {w - 2} 1 category=marker",
    ]
    events: list[str] = []
    for i, y in enumerate(rng.sample(range(4, h - 1), TRAFFIC_CARTS)):
        cart = f"cart{i:02d}"
        leg = rng.randint(6, 12)
        x0 = rng.randint(1, w - 2 - leg)
        x = x0 + rng.randint(0, leg)
        d = rng.choice((1, -1))
        span = x0 + leg - x if d > 0 else x - x0
        if span == 0:
            d, span = -d, leg
        lines.append(f"entity {cart} {x} {y} category=cart")
        t = 0
        while t <= TRAFFIC_EVENT_HORIZON:
            events.append(f"at {t} velocity {cart} {d} 0")
            t += span
            if i % 2 == 0:
                events.append(f"at {t} velocity {cart} 0 0")
                t += 1
            d, span = -d, leg
    for j in range(TRAFFIC_LAMPS):
        lamp = f"lamp{j}"
        lines.append(f"entity {lamp} {6 + 12 * j} 2 category=lamp")
        period = rng.randint(3, 6)
        t = rng.randint(1, period)
        while t <= TRAFFIC_EVENT_HORIZON:
            events.append(f"at {t} set {lamp} powered")
            events.append(f"at {t + period // 2 + 1} clear {lamp} powered")
            t += period + 2
    lines.extend(events)
    lines.append("task navigate target=marker1")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    # print one generated scenario: workloads.py crowded|traffic|ltm SEED
    import sys

    kind, seed = sys.argv[1], int(sys.argv[2])
    if kind == "crowded":
        sys.stdout.write(crowded_text(seed))
    elif kind == "traffic":
        sys.stdout.write(traffic_text(seed))
    else:
        sys.stdout.write(ltm_variant_text(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
