"""Every Choquet integral on a small lattice, against a layer-cake oracle.

On 1 to 3 points this takes every monotone normalized table with values
in {0, 1/2, 1} (1, 9 and 129 of them, from ``small_tables``) and every act with values in
{-1, 0, 1/2, 2}, and integrates each pair in every representation that
``choquet_integral`` dispatches on: a dense table with an exact form, the
same table in floats, the exact table kept without a form (as a table
whose denominators are too coprime to share one is kept), and, for the
additive tables, a mass vector with an exact form and one of floats.  All
tables of one size are also integrated as one batch of mask columns by
``xi``.  The oracle is written here and shares no code with the package:
the layer-cake integral over the act's distinct values and 0.  Every value
on the lattice is dyadic, so a float integral is exact and compares with
``==`` too.
"""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from choquet_tower.choquet import choquet_integral
from choquet_tower.core import Act, Capacity, FiniteSpace, additive_capacity, validate_capacity
from choquet_tower.uncertainty import UncertaintySpace, xi

from small_tables import is_additive, monotone_tables

ACT_VALUES = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2))
SIZES = (1, 2, 3)


def layer_cake(table: list, values: tuple) -> Fraction:
    """The integral of t -> v(f >= t) over t > 0, less that of
    t -> 1 - v(f >= t) over t < 0.  Between two neighbouring cuts (the
    act's values and 0) the level set is that of the upper cut."""
    cuts = sorted(set(values) | {0})
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        upper = table[sum(1 << i for i, x in enumerate(values) if x >= hi)]
        total += (hi - lo) * (upper if lo >= 0 else upper - 1)
    return total


@cache
def lattice(n: int):
    """The space, its tables, its acts, and the oracle's integral of act a
    under table t at ``expected[t][a]``."""
    space = FiniteSpace(tuple("abc"[:n]))
    tables = monotone_tables(n)
    acts = list(product(ACT_VALUES, repeat=n))
    expected = [[layer_cake(table, values) for values in acts] for table in tables]
    return space, tables, [Act(space, values) for values in acts], expected


def test_the_lattice_holds_every_monotone_table():
    assert [len(lattice(n)[1]) for n in SIZES] == [1, 9, 129]
    assert [sum(is_additive(t, n) for t in lattice(n)[1]) for n in SIZES] == [1, 3, 6]


def _dense_form(space, table):
    cap = validate_capacity(space, table)
    assert cap.exact_form is not None
    return cap


def _dense_floats(space, table):
    cap = validate_capacity(space, [float(v) for v in table])
    assert cap.exact_form is None
    return cap


def _dense_without_form(space, table):
    cap = Capacity(space, table=tuple(table), derive=False)
    assert cap.exact_form is None and isinstance(cap.value(0), Fraction)
    return cap


def _mass_form(space, table):
    cap = additive_capacity(space, form=([int(2 * table[1 << i]) for i in range(len(space))],
                                         2))
    assert cap.exact_form is not None
    return cap


def _mass_floats(space, table):
    cap = additive_capacity(space, [float(table[1 << i]) for i in range(len(space))])
    assert cap.exact_form is None
    return cap


#: (builder, whether it stores a mass vector)
REPRESENTATIONS = {
    "dense form": (_dense_form, False),
    "dense floats": (_dense_floats, False),
    "dense without form": (_dense_without_form, False),
    "mass form": (_mass_form, True),
    "mass floats": (_mass_floats, True),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_every_integral_matches_the_layer_cake(representation, n):
    build, masses = REPRESENTATIONS[representation]
    space, tables, acts, expected = lattice(n)
    checked = 0
    for table, row in zip(tables, expected):
        if masses and not is_additive(table, n):
            continue
        cap = build(space, table)
        assert (cap._masses is not None) == masses
        got = [choquet_integral(cap, f) for f in acts]
        bad = [(f.values, g, e) for f, g, e in zip(acts, got, row) if g != e]
        assert not bad, (table, bad[:3])
        checked += 1
    assert checked == (sum(is_additive(t, n) for t in tables) if masses else len(tables))


@pytest.mark.parametrize("n", SIZES)
def test_xi_on_one_batch_of_every_table_matches_each_integral(n):
    space, tables, acts, expected = lattice(n)
    columns = [[int(2 * table[m]) for table in tables] for m in range(1 << n)]
    us = UncertaintySpace.of_columns(space, tuple(f"t{k}" for k in range(len(tables))),
                                     columns, 2)
    assert us.kind == "table"
    caps = [cap for _, cap in us.capacities]
    for a, f in enumerate(acts):
        each = tuple(choquet_integral(cap, f) for cap in caps)
        assert xi(us, f).values == each == tuple(row[a] for row in expected), f.values
