"""Finite truncation of the iterated-uncertainty tower over a small base.

Level n+1 enumerates every additive capacity on level n whose singleton
masses lie on the grid {0, 1/m, ..., 1}, one batch of mass columns over m:
a column per point of level n, which count ``core.validate_batch`` reads
as mass vectors, checked in whole-column passes.  Point masses stay on the
grid, so the unit map climbs the tower; averaging descends but may leave
the grid, which the law checks tolerate by comparing exact tables rather
than names.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .category import dirac, mu
from .core import Capacity, FiniteSpace, Frozen
from .uncertainty import UncertaintySpace


class TowerSizeError(ValueError):
    """Requested tower exceeds the enumeration guards."""


def _grid_compositions(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """All numerator tuples of the given length summing to total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _grid_compositions(parts - 1, total - first):
            yield (first,) + rest


class GridTower(Frozen):
    """Base space plus enumerated grid-additive capacity levels, stored only
    as views: ``views[k]`` is level k as an uncertainty space whose
    capacities and capacity space are level k+1's points and point set.
    """

    def __init__(self, base: FiniteSpace, grid: int, views: tuple[UncertaintySpace, ...]):
        self.__dict__.update(base=base, grid=grid, views=views)

    @property
    def depth(self) -> int:
        return len(self.views)

    def space_at(self, level: int) -> FiniteSpace:
        return self.base if level == 0 else self.view(level - 1).capacity_space

    def view(self, level: int) -> UncertaintySpace:
        """Level `level` as an uncertainty space carrying level+1's points."""
        if not 0 <= level < self.depth:
            raise IndexError(f"views lie in 0..{self.depth - 1}, not {level} (level {level + 1})")
        return self.views[level]

    def find_name(self, level: int, cap: Capacity) -> Optional[str]:
        """Grid name of an exact table match at the given level, if any."""
        return self.view(level - 1).name_of(cap)


def build_tower(base: FiniteSpace, grid: int, depth: int) -> GridTower:
    """Enumerate `depth` capacity levels over the base on a 1/grid mass grid,
    each a batch for ``UncertaintySpace.of_columns``: a column per point of
    the level below, a row per composition named by its numerators."""
    if grid < 1 or depth < 1:
        raise ValueError(f"a tower needs grid >= 1 and depth >= 1, "
                         f"got grid {grid}, depth {depth}")
    if len(base) > 3 or grid > 4 or depth > 4:
        raise TowerSizeError("tower guards: base <= 3 points, grid <= 4, depth <= 4")
    views = []
    current = base
    for _ in range(depth):
        size = math.comb(len(current) + grid - 1, grid)
        if size > 5000:
            raise TowerSizeError(f"level would have {size} points")
        compositions = list(_grid_compositions(len(current), grid))
        names = tuple("-".join(map(str, c)) for c in compositions)
        views.append(UncertaintySpace.of_columns(
            current, names, [list(column) for column in zip(*compositions)], grid))
        current = views[-1].capacity_space
    return GridTower(base, grid, tuple(views))


def project(tower: GridTower, cap: Capacity, m_from: int, n_to: int) -> Capacity:
    """Carry one level-``m_from`` point, given as its capacity, to level ``n_to``.

    Identity on equal levels; repeated averaging when descending (the
    result is an exact capacity on the lower level, possibly off-grid);
    repeated point-mass lifting when climbing, which needs ``cap`` on the
    grid and stays on it.  Levels lie in 1..depth, as ``iota`` checks.
    """
    for k in range(m_from, n_to, -1):
        cap = mu(tower.view(k - 2), cap)
    for k in range(m_from, n_to):
        cap = dirac(tower.space_at(k), tower.find_name(k, cap))
    return cap


def iota(tower: GridTower, m_from: int, n_to: int) -> dict[str, Capacity]:
    """The projection/embedding between tower levels, point by point.

    Keys are level-``m_from`` point names; values are capacities
    representing the image points at level ``n_to`` (see ``project``).
    """
    if not 1 <= m_from <= tower.depth or not 1 <= n_to <= tower.depth:
        raise ValueError(f"levels must lie in 1..{tower.depth}")
    return {name: project(tower, cap, m_from, n_to)
            for name, cap in tower.view(m_from - 1).capacities}


class ProjectiveVector(Frozen):
    """One capacity per tower level, candidate member of the inverse limit.

    Entry i is a capacity on level i's point set (an element of level i+1
    in tower terms); consistency means each entry is the average of the
    next one.
    """

    def __init__(self, tower: GridTower, entries: tuple[Capacity, ...]):
        if not 1 <= len(entries) <= tower.depth:
            raise ValueError("vector length must fit the tower depth")
        for i, cap in enumerate(entries):
            if cap.space.points != tower.space_at(i).points:
                raise ValueError(f"entry {i} lives on the wrong level")
        self.__dict__.update(tower=tower, entries=entries)


def projective_consistency(vec: ProjectiveVector) -> tuple[bool, Optional[int]]:
    """Exact check that each entry averages down from the next.

    Returns (True, None) or (False, first failing 1-based index).
    """
    tower = vec.tower
    for i in range(len(vec.entries) - 1):
        averaged = mu(tower.view(i), vec.entries[i + 1])
        if vec.entries[i] != averaged:
            return False, i + 1
    return True, None
