"""``mu`` against its defining table, on every weight of a small lattice.

The result of averaging a second-order capacity v over an uncertainty
space is defined subset by subset: its value on A is the Choquet integral,
under v, of the act that gives each capacity its value on A.  Here that
table is computed from the capacities' rows with a layer-cake sum written
in this file, sharing no code with the package, for every additive weight
with numerators in {0, 1, 2} and every monotone {0, 1/2, 1} table as a
weight, over spaces of 1–3 capacities on 1–3 points.  Each space is built
three ways where its capacities allow: as a batch of mass columns, as a
batch of dense-table columns, and from (name, capacity) pairs.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from choquet_tower.category import mu
from choquet_tower.core import additive_capacity, make_space, validate_capacity
from choquet_tower.uncertainty import UncertaintySpace

from small_tables import monotone_tables


def _members(mask, n):
    return [i for i in range(n) if mask & (1 << i)]


@cache
def _mass_rows(n):
    """(masses, table) of every additive capacity whose masses are
    numerators in {0, 1, 2} over their sum, one per distinct set function."""
    seen, rows = set(), []
    for nums in product((0, 1, 2), repeat=n):
        if any(nums):
            masses = tuple(Fraction(k, sum(nums)) for k in nums)
            if masses not in seen:
                seen.add(masses)
                table = [sum((masses[i] for i in _members(m, n)), Fraction(0))
                         for m in range(1 << n)]
                rows.append((masses, table))
    return tuple(rows)


def _layer_cake(weight_table, values):
    """The Choquet integral of nonnegative values on k points under a table:
    the sum over the distinct levels t, ascending from 0, of the rise to t
    times the weight of the points whose value is at least t."""
    levels = sorted(set(values) | {0})
    total = Fraction(0)
    for low, high in zip(levels, levels[1:]):
        upper = sum(1 << j for j, x in enumerate(values) if x >= high)
        total += (high - low) * weight_table[upper]
    return total


def _weights(k):
    names = make_space([f"c{j}" for j in range(k)])
    for nums in product((0, 1, 2), repeat=k):
        if any(nums):
            table = [Fraction(sum(nums[j] for j in _members(m, k)), sum(nums))
                     for m in range(1 << k)]
            yield additive_capacity(names, form=(list(nums), sum(nums))), table
    for table in monotone_tables(k):
        yield validate_capacity(names, list(table)), table


def _windows(rows, k, count=3):
    # up to `count` runs of k consecutive rows, spread over the list
    starts = range(len(rows) - k + 1)
    step = max(1, math.ceil(len(starts) / count))
    return [rows[i:i + k] for i in starts[::step]]


def _spaces(n, k):
    """(how it was built, space, rows) for spaces of k capacities on n points."""
    base = make_space(["a", "b", "c"][:n])
    names = tuple(f"c{j}" for j in range(k))
    additive, tables = _mass_rows(n), monotone_tables(n)
    for chosen in _windows(additive, k):
        den = math.lcm(*(x.denominator for masses, _ in chosen for x in masses))
        columns = [[int(masses[i] * den) for masses, _ in chosen] for i in range(n)]
        rows = [table for _, table in chosen]
        yield "mass batch", UncertaintySpace.of_columns(base, names, columns, den), rows
        yield "additive pairs", UncertaintySpace(base, tuple(
            (name, additive_capacity(base, list(masses)))
            for name, (masses, _) in zip(names, chosen))), rows
        yield "additive dense batch", _dense_batch(base, names, rows), rows
    for rows in _windows(tables, k):
        yield "dense batch", _dense_batch(base, names, rows), rows
        yield "table pairs", UncertaintySpace(base, tuple(
            (name, validate_capacity(base, list(row))) for name, row in zip(names, rows))), rows


def _dense_batch(base, names, rows):
    den = math.lcm(*(x.denominator for row in rows for x in row))
    columns = [[int(row[m] * den) for row in rows] for m in range(1 << len(base))]
    return UncertaintySpace.of_columns(base, names, columns, den)


def test_the_lattices_have_their_known_sizes():
    assert [len(monotone_tables(n)) for n in (1, 2, 3)] == [1, 9, 129]
    assert [len(_mass_rows(n)) for n in (1, 2, 3)] == [1, 5, 19]


# one point carries one capacity only
@pytest.mark.parametrize("n,k", [(1, 1)] + [(n, k) for n in (2, 3) for k in (1, 2, 3)])
def test_mu_is_its_defining_table_for_every_weight(n, k):
    weights = list(_weights(k))
    built = set()
    for how, us, rows in _spaces(n, k):
        built.add(how)
        for v, weight_table in weights:
            expected = [_layer_cake(weight_table, [row[m] for row in rows])
                        for m in range(1 << n)]
            got = mu(us, v)
            assert [got.value(m) for m in range(1 << n)] == expected, (how, rows, weight_table)
    assert built == {"mass batch", "additive pairs", "additive dense batch", "dense batch",
                     "table pairs"}
