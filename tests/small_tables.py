"""Every small table, and the monotonicity oracle, for the exhaustive tests.

Written here from the definitions, sharing no code with the package.  A
table lists a set function's values in mask order: entry m is the value on
the subset of the points whose bits are set in m, point i being bit i.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterator

LEVELS = (Fraction(0), Fraction(1, 2), Fraction(1))


def every_table(n: int, entries) -> Iterator[tuple]:
    """Every table on n points whose entries are drawn from ``entries``, in
    the order ``product`` gives them."""
    return product(entries, repeat=1 << n)


def is_monotone(table) -> bool:
    """No entry exceeds an entry on a superset, over every nested pair."""
    return all(table[small] <= table[large] for large in range(len(table))
               for small in range(large + 1) if small & large == small)


def decreases(table, n: int, tol=0) -> list[tuple[int, int]]:
    """Every cover pair (mask, mask with one point i added), by mask then
    by i, whose first entry exceeds the second by more than ``tol``."""
    return [(mask, mask | 1 << i) for mask in range(len(table)) for i in range(n)
            if not mask >> i & 1 and table[mask] - table[mask | 1 << i] > tol]


def is_additive(table, n: int) -> bool:
    """Every entry is the sum of its points' singleton entries."""
    return all(table[m] == sum(table[1 << i] for i in range(n) if m >> i & 1)
               for m in range(len(table)))


@cache
def monotone_tables(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Every monotone table on n points with 0 on the empty set, 1 on the
    full set and values in LEVELS between: 1, 9 and 129 of them on 1, 2
    and 3 points."""
    return tuple(table for table in every_table(n, LEVELS)
                 if table[0] == 0 and table[-1] == 1 and is_monotone(table))
