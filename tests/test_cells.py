"""Cell buckets: `close_pairs` against brute-force pair sets."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.cells import close_pairs

# (item, layer, x, y): a few items, each with points in up to three layers,
# on a small grid around the origin so that points share and neighbour cells
POINTS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(-6, 6), st.integers(-6, 6)),
    max_size=24,
)


def brute_force(points, close) -> set[tuple[int, int]]:
    """(i, j), i < j, of distinct items with two points in one layer for
    which `close(dx, dy)` holds, found by testing every pair of points."""
    pairs = set()
    for (i, layer_i, xi, yi), (j, layer_j, xj, yj) in combinations(points, 2):
        if i != j and layer_i == layer_j and close(abs(xi - xj), abs(yi - yj)):
            pairs.add((min(i, j), max(i, j)))
    return pairs


@settings(max_examples=300)
@given(POINTS)
def test_unit_cells_pair_exactly_the_items_sharing_a_point(points):
    assert close_pairs(points, 1) == brute_force(points, lambda dx, dy: dx == dy == 0)


@settings(max_examples=300)
@given(POINTS, st.integers(2, 3))
def test_wider_cells_hold_every_pair_closer_than_the_cell_width(points, size):
    assert close_pairs(points, size) >= brute_force(points, lambda dx, dy: dx < size and dy < size)
