"""``epsilon``, ``tower.project`` in both directions and ``iota`` on every
tower with a 1- or 2-point base, grid 1 or 2 and depth at most 3, judged by
brute force written here.

A level is enumerated afresh as every numerator tuple over the level below
that sums to the grid, in lexicographic order, and a point's capacity is
read from its name.  Averaging a point v down one level is its defining
table A -> sum_j v_j * c_j(A) over the points c_j of the level below;
climbing is the point mass at the point's own name, which ``find_name``
must give.
"""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from choquet_tower.core import FiniteSpace
from choquet_tower.tower import build_tower, iota, project
from choquet_tower.uncertainty import epsilon

TOWERS = [(size, grid, depth) for size in (1, 2) for grid in (1, 2) for depth in (1, 2, 3)]


def _levels(size: int, grid: int, depth: int) -> list[tuple[str, ...]]:
    levels = [tuple("ab"[:size])]
    for _ in range(depth):
        levels.append(tuple("-".join(map(str, nums))
                            for nums in product(range(grid + 1), repeat=len(levels[-1]))
                            if sum(nums) == grid))
    return levels


@cache
def _table(name: str, grid: int) -> tuple[Fraction, ...]:
    """The capacity a point's name holds: its numerators over the grid as
    singleton masses, summed on every mask."""
    masses = [Fraction(int(k), grid) for k in name.split("-")]
    return tuple(sum(m for i, m in enumerate(masses) if mask >> i & 1)
                 for mask in range(1 << len(masses)))


def _image(levels, grid, name, m, n) -> tuple[tuple[Fraction, ...], str]:
    """The table of the level-m point ``name`` carried to level n, and on a
    climb the name of the image."""
    table = _table(name, grid)
    for k in range(m, n, -1):
        # v_j is v's singleton value at the j-th point of level k - 1
        below = [_table(c, grid) for c in levels[k - 1]]
        table = tuple(sum(table[1 << j] * c[mask] for j, c in enumerate(below))
                      for mask in range(1 << len(levels[k - 2])))
    for k in range(m, n):
        name = "-".join(str(grid) if p == name else "0" for p in levels[k])
        table = _table(name, grid)
    return table, name


@pytest.mark.parametrize("size, grid, depth", TOWERS,
                         ids=[f"base{s}-grid{g}-depth{d}" for s, g, d in TOWERS])
def test_tower_maps_match_the_brute_force_oracle(size, grid, depth):
    tower = build_tower(FiniteSpace(tuple("ab"[:size])), grid, depth)
    levels = _levels(size, grid, depth)
    assert [tower.space_at(k).points for k in range(depth + 1)] == levels
    for k, view in enumerate(tower.views):
        for mask in range(1 << len(levels[k])):
            assert epsilon(view, mask).values == tuple(
                _table(c, grid)[mask] for c in levels[k + 1])
    for m, n in product(range(1, depth + 1), repeat=2):
        mapped = iota(tower, m, n)
        assert list(mapped) == list(levels[m])
        for name, cap in tower.view(m - 1).capacities:
            image = project(tower, cap, m, n)
            table, image_name = _image(levels, grid, name, m, n)
            assert tuple(map(image.value, range(1 << len(levels[n - 1])))) == table
            assert mapped[name] == image
            if m <= n:
                assert tower.find_name(n, image) == image_name
