"""An uncertainty space built from one batch of dense tables, given as its
mask columns (``UncertaintySpace.of_columns``), against one built from
checked capacities.

The oracle is the one-table path: each row of the batch through
``_checked_form`` and ``_checked_table`` in turn, then the constructor,
which checks names and separation on the capacities.  The two must raise
the same error, message and witness, or build the same named capacities,
also for batches in which every column repeats an entry, so that
separation is decided on the rows and not on one column.
The urn is built as a batch and must build no capacity of its own unless
one is read; read, its capacities and names are those of the urn built from
Fraction tables, and its integrals those of the urn built from its
capacities, which integrates each one alone.  Building it allocates little
beyond the batch it keeps.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.core import Capacity, _checked_form, make_space, validate_capacity
from choquet_tower.ellsberg import (UrnParams, build_urn_space, ellsberg_report,
                                    standard_acts)
from choquet_tower.uncertainty import UncertaintySpace, xi

KINDS = ("good", "duplicate", "zero-den", "negative-den", "negated", "float",
         "fraction", "length")


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _monotone_table(rng, n, den):
    # numerators of a monotone table from 0 to den
    size = 1 << n
    nums = [0] * size
    for mask in range(1, size - 1):
        below = max(nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        nums[mask] = min(den, below + rng.randint(0, den // 3) * rng.randint(0, 1))
    nums[-1] = den
    return nums


def _columns(tables):
    return [list(column) for column in zip(*tables)]


def _rows(columns):
    # row k holds each column's entry k, and is short where a column ends
    return [[c[k] for c in columns if k < len(c)]
            for k in range(max(map(len, columns), default=0))]


def _batch(rng, n, count, kind):
    """Names, mask columns and denominator of a batch with one defect of
    the given kind ("good" and "negated" have none)."""
    size = 1 << n
    den = rng.choice([1, 2, 6, 12, 35])
    tables = [_monotone_table(rng, n, den) for _ in range(count)]
    if kind == "duplicate" and count > 1:
        first = rng.randrange(count - 1)
        tables[rng.randrange(first + 1, count)] = list(tables[first])
    columns = _columns(tables)
    column = columns[rng.randrange(size)]
    where = rng.randrange(count)
    if kind == "zero-den":
        den = 0
    elif kind == "negative-den":
        den = -den
    elif kind == "negated":
        columns, den = [[-x for x in c] for c in columns], -den
    elif kind == "float":
        column[where] = float(column[where]) if rng.random() < 0.5 else 0.5
    elif kind == "fraction":
        column[where] = Fraction(column[where]) if rng.random() < 0.5 else Fraction(1, 2)
    elif kind == "length":
        if rng.random() < 0.5:
            del column[where]
        else:
            column.insert(where, rng.choice([0, den]))
    names = tuple(f"c{i}" for i in range(max(map(len, columns))))
    return names, columns, den


def _one_table_path(space, names, columns, den):
    size = 1 << len(space)
    caps = [core._checked_table(space, *_checked_form((row, den), size))
            for row in _rows(columns)]
    return UncertaintySpace(space, tuple(zip(names, caps)))


def _outcome(build):
    try:
        us = build()
    except (ValueError, TypeError, ArithmeticError) as err:
        return ("error", type(err), str(err), getattr(err, "witness", None))
    return ("space", us.names,
            [(name, cap.exact_form, hash(cap)) for name, cap in us.capacities],
            [us.name_of(cap) for _, cap in us.capacities])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=40), st.sampled_from(KINDS))
@settings(max_examples=300, deadline=None)
def test_a_batch_builds_or_refuses_what_the_one_table_path_does(seed, n, count, kind):
    rng = random.Random(seed)
    space = _space(n)
    names, columns, den = _batch(rng, n, count, kind)
    got = _outcome(lambda: UncertaintySpace.of_columns(space, names,
                                                       [list(c) for c in columns], den))
    want = _outcome(lambda: _one_table_path(space, names, columns, den))
    event(f"{kind}: {want[0] if want[0] == 'space' else want[1].__name__}")
    assert got == want
    if kind in ("zero-den", "negative-den", "float", "fraction", "length"):
        assert got[0] == "error"


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=4),
       st.integers(min_value=4, max_value=30), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rows_are_compared_when_no_column_separates(seed, n, count, repeat):
    # numerators of 0..2 in more than three tables: every column repeats an
    # entry, so only the rows can show the tables distinct, or not
    rng = random.Random(seed)
    space = _space(n)
    size = 1 << n
    drawn = []
    for _ in range(count):
        nums = [0] * size
        for mask in range(1, size - 1):
            below = max(nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
            nums[mask] = max(below, rng.randint(0, 2))
        nums[-1] = 2
        drawn.append(tuple(nums))
    tables = list(dict.fromkeys(drawn))
    assume(len(tables) > 3)
    if repeat:
        first = rng.randrange(len(tables))
        tables.insert(rng.randrange(first + 1, len(tables) + 1), tables[first])
    columns = _columns(tables)
    assert all(len(set(column)) < len(tables) for column in columns)
    names = tuple(f"c{i}" for i in range(len(tables)))
    got = _outcome(lambda: UncertaintySpace.of_columns(space, names, columns, 2))
    want = _outcome(lambda: _one_table_path(space, names, columns, 2))
    event(f"{len(tables)} tables: {want[0] if want[0] == 'space' else want[1].__name__}")
    assert got == want
    assert got[0] == ("error" if repeat else "space")
    if repeat:
        assert got[1] is core.DuplicateLabelError


def test_a_repeated_table_names_the_first_pair():
    space = _space(2)
    a, b = [0, 1, 1, 2], [0, 0, 1, 2]
    with pytest.raises(core.DuplicateLabelError) as err:
        UncertaintySpace.of_columns(space, ("x", "y", "z", "w"), _columns([a, b, b, a]), 2)
    assert str(err.value) == "capacities 'y' and 'z' have identical tables"


def test_names_must_match_the_tables():
    space = _space(1)
    with pytest.raises(ValueError, match="2 capacity names for 3 rows"):
        UncertaintySpace.of_columns(space, ("x", "y"), [[0, 0, 0], [2, 2, 2]], 2)
    with pytest.raises(core.DuplicateLabelError, match="capacity names must be unique"):
        UncertaintySpace.of_columns(space, ("x", "x"), [[0, 0], [2, 2]], 2)
    with pytest.raises(ValueError, match="^an uncertainty space needs at least one capacity$"):
        UncertaintySpace.of_columns(space, (), [[], []], 2)


# -- the urn ------------------------------------------------------------------


@pytest.fixture
def urn_capacities(monkeypatch):
    """The point labels of every Capacity built on the urn's three points."""
    built = []
    init = Capacity.__init__

    def counted(self, space, **kwargs):
        if space.points == ("R", "B", "Y"):
            built.append(space.points)
        init(self, space, **kwargs)

    monkeypatch.setattr(Capacity, "__init__", counted)
    return built


@pytest.mark.parametrize("variant, layer", [("X", 2), ("Y", 2), ("Z", 3), ("X", 1)])
def test_the_urn_report_builds_no_capacity_of_the_urn(urn_capacities, variant, layer):
    report = ellsberg_report(variant, UrnParams(6, 2, Fraction(3, 5)), layer)
    assert report.verdict != "disagrees with the closed form"
    assert urn_capacities == []
    # the count sees a capacity that is read
    urn = build_urn_space(UrnParams(6, 2, Fraction(3, 5)))
    assert urn_capacities == []
    urn.capacity("u3")
    assert len(urn_capacities) == 13


@pytest.mark.parametrize("big_n, alpha", [(1, 1), (3, 2), (20, 3)])
def test_a_batch_built_urn_reads_as_the_urn_built_from_fraction_tables(big_n, alpha):
    urn = build_urn_space(UrnParams(big_n, alpha, Fraction(1, 2)))
    space, two_n = urn.base, 2 * big_n
    third = Fraction(1, 3)
    caps = []
    for k in range(two_n + 1):
        blue = 2 * third * Fraction(k, two_n) ** alpha
        yellow = 2 * third * Fraction(two_n - k, two_n) ** alpha
        caps.append(validate_capacity(
            space, (0, third, blue, third + blue, yellow, third + yellow, 2 * third, 1)))
    oracle = UncertaintySpace(space, tuple((f"u{k}", cap) for k, cap in enumerate(caps)))
    assert urn.names == oracle.names
    assert urn.capacities == oracle.capacities
    assert ([cap.exact_form for _, cap in urn.capacities]
            == [cap.exact_form for _, cap in oracle.capacities])
    for name, cap in oracle.capacities:
        assert urn.name_of(cap) == name and urn.capacity(name) == cap
    assert urn.name_of(validate_capacity(space, (0, 0, 0, 0, 0, 0, 0, 1))) is None


@pytest.mark.parametrize("big_n, alpha", [(1, 1), (3, 2), (20, 3)])
def test_an_urn_built_from_columns_equals_the_urn_built_from_capacities(big_n, alpha):
    urn = build_urn_space(UrnParams(big_n, alpha, Fraction(1, 2)))
    # each row through the one-table form check
    den = urn.batch[1]
    caps = tuple((name, core._checked_table(urn.base, *_checked_form((list(row), den), 8)))
                 for name, row in zip(urn.names, zip(*urn.batch[0])))
    oracle = UncertaintySpace(urn.base, caps)
    assert oracle.batch is None
    assert urn.capacities == oracle.capacities
    for f in standard_acts(urn.base).values():
        for act in (f, f.scale(Fraction(3, 5))):
            assert xi(urn, act) == xi(oracle, act)
            assert xi(urn, act).exact_form == xi(oracle, act).exact_form


def test_building_the_urn_allocates_little_beyond_what_it_keeps():
    # at N = 20000 the 40001 tables hold about 9.7 MB; separating them on the
    # B column takes about 2.6 MB more at the peak, one tuple per table 9.3 MB
    params = UrnParams(20000, 2, Fraction(3, 5))
    tracemalloc.start()
    try:
        urn = build_urn_space(params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(column) for column in urn.batch[0]] == [40001] * 8
    assert peak - held < 6_000_000


# -- the checked form -----------------------------------------------------------


def test_a_form_over_one_comes_back_as_given():
    nums = [0, 3, 5, 7]
    got, den = _checked_form((nums, 1), 4)
    assert got is nums and den == 1


@pytest.mark.parametrize("form, want", [
    (([0, -3, -5, -7], -1), ([0, 3, 5, 7], 1)),
    (([0, 2, 4, 6], 2), ([0, 1, 2, 3], 1)),
    (([0, -6, 9, 12], -3), ([0, 2, -3, -4], 1)),
    (([0, 4, 6, 8], 12), ([0, 2, 3, 4], 6)),
])
def test_a_form_over_minus_one_or_a_shared_factor_is_reduced(form, want):
    nums, den = _checked_form(form, 4)
    assert (list(nums), den) == want
