"""Uniform grids of cell buckets: pairwise work that scales with its output.

Collision prediction relates movers whose predicted cells come close.
Testing every pair costs the square of the mover count, while only a
handful of pairs pass. Bucketing the points by cell, with cells as wide
as the distance that matters, leaves as candidates only the pairs in the
same or neighbouring cells (Bentley and Friedman 1979, "Data Structures for Range
Searching"; Teschner et al. 2003, "Optimized Spatial Hashing for Collision
Detection of Deformable Objects").

For a handful of points the buckets cost more than they save. A point's
neighbourhood touches `NEIGHBOURHOOD` cells, so the callers test every
pair while their input is no larger than that: collision prediction
counts pairs of movers, and perception, which finds its candidate pairs
by a sweep instead (`perceive._candidate_pairs`), counts free entities.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import combinations, product

# a point's own cell and the eight around it
NEIGHBOURHOOD = 9


def close_pairs(
    points: Iterable[tuple[int, Hashable, int, int]], size: int
) -> set[tuple[int, int]]:
    """The pairs (i, j), i < j, of items with points in one layer and in
    the same or neighbouring `size`-wide cells.

    Each point is (item, layer, x, y); an item may have a point in more
    than one layer (one per tick, say). The result holds every pair of
    items with two points in one layer that are less than `size` apart on
    both axes, and so every pair closer than `size`: their cells differ by
    at most one on each axis. It may hold pairs farther apart, which the
    caller's exact test drops. Coordinates are integers, so with `size` 1
    two points less than 1 apart on both axes are one point, in one cell:
    then only the pairs sharing a cell are returned, and no neighbouring
    cell is looked at.
    """
    cells: dict[tuple[Hashable, int, int], list[int]] = {}
    for item, layer, x, y in points:
        key = (layer, x // size, y // size)
        group = cells.get(key)
        if group is None:
            cells[key] = [item]
        else:
            group.append(item)
    pairs: set[tuple[int, int]] = set()
    get = cells.get
    for (layer, cx, cy), here in cells.items():
        if len(here) > 1:
            _add_pairs(pairs, combinations(here, 2))
        if size == 1:
            continue
        # each pair of neighbouring cells once: the four that come after this one
        east = cx + 1
        for there in (
            get((layer, east, cy - 1)),
            get((layer, east, cy)),
            get((layer, east, cy + 1)),
            get((layer, cx, cy + 1)),
        ):
            if there:
                _add_pairs(pairs, product(here, there))
    return pairs


def _add_pairs(pairs: set[tuple[int, int]], found: Iterable[tuple[int, int]]) -> None:
    for i, j in found:
        if i < j:
            pairs.add((i, j))
        elif j < i:
            pairs.add((j, i))
