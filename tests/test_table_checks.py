"""Dense-table checks against their slow definitions, and a guard on their cost.

``core`` checks monotonicity and additivity of a table on comparison keys
(integer numerators over one common denominator for exact tables) with
slice sweeps.  The oracles below are the definitions those sweeps replace:
every cover pair in (mask, point) order, and every mask split off its
lowest point.  They must agree on the verdict and on the witness.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.core import (TABLE_TOL, Capacity, make_space,
                                tolerance, validate_capacity)
from choquet_tower.spacefile import load_space_file


def _differs(a, b, tol) -> bool:
    return abs(a - b) > tol if tol else a != b


def oracle_witness(table):
    """First decreasing cover pair in (mask, point) order, or None."""
    tol = tolerance(table)
    n = len(table).bit_length() - 1
    for mask in range(len(table)):
        for i in range(n):
            if mask >> i & 1:
                continue
            above = mask | 1 << i
            if table[mask] > table[above] and _differs(table[mask], table[above], tol):
                return mask, above
    return None


def oracle_is_additive(table) -> bool:
    """Every value splits off its lowest point's singleton."""
    tol = tolerance(table)
    for mask in range(1, len(table)):
        low = mask & -mask
        if mask != low and _differs(table[mask], table[mask ^ low] + table[low], tol):
            return False
    return True


def _space_for(table):
    return make_space([f"p{i}" for i in range(len(table).bit_length() - 1)])


def table_keys(table):
    """The comparison keys ``core`` checks a table on, and their tolerance:
    the numerators of its exact form, or else the values themselves."""
    form = Capacity(_space_for(table), table=table).exact_form
    return (form[0], 0) if form else (list(table), tolerance(table))


def fast_witness(table):
    first = core._first_decrease(len(table).bit_length() - 1, *table_keys(table))
    return None if first is None else (first[0], first[0] | 1 << first[1])


def fast_is_additive(table) -> bool:
    return core._table_is_additive(*table_keys(table))


def _subset_sums(masses):
    sums = [0] * (1 << len(masses))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + masses[low.bit_length() - 1]
    return sums


@st.composite
def exact_tables(draw):
    """(kind, table): monotone, one injected decrease, additive, or neither.

    Values share one denominator, or each has its own among many primes,
    so both integer numerators and Fraction keys are exercised.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    size = 1 << n
    shared = draw(st.booleans())
    den = draw(st.integers(min_value=1, max_value=60))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def frac(num):
        return Fraction(num, den if shared else rng.choice(PRIMES))

    kind = draw(st.sampled_from(["monotone", "decrease", "additive", "non-additive"]))
    if kind in ("additive", "non-additive"):
        masses = [frac(rng.randint(0, 9)) for _ in range(n)]
        table = _subset_sums(masses)
        if kind == "non-additive":
            mask = rng.randrange(3, size)
            table[mask] += Fraction(rng.choice([-1, 1]), rng.choice(PRIMES))
        return kind, table
    table = [Fraction(0)] * size
    for mask in range(1, size):
        below = max((table[mask ^ 1 << i] for i in range(n) if mask >> i & 1))
        table[mask] = below + frac(rng.randint(0, 3)) * rng.randint(0, 1)
    if kind == "decrease":
        mask = rng.randrange(size)
        free = [i for i in range(n) if not mask >> i & 1]
        if free:
            above = mask | 1 << rng.choice(free)
            table[above] = table[mask] - Fraction(1, rng.choice(PRIMES))
    return kind, table


#: small primes and the primes between 1000 and 1300: a large table drawing
#: its denominators from them has a common denominator too long for keys
PRIMES = [p for p in [2, 3, 5, 7, 11, 13, *range(1001, 1300, 2)]
          if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@st.composite
def float_tables(draw):
    """Monotone float tables with decreases on both sides of TABLE_TOL."""
    n = draw(st.integers(min_value=2, max_value=8))
    size = 1 << n
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    steps = [0.0, 0.5 * TABLE_TOL, TABLE_TOL, 0.999 * TABLE_TOL,
             1.001 * TABLE_TOL, 2 * TABLE_TOL, 1e-3]
    masses = [rng.random() for _ in range(n)]
    table = _subset_sums(masses)
    if draw(st.booleans()):
        table = [v * v for v in table]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mask = rng.randrange(size)
        free = [i for i in range(n) if not mask >> i & 1]
        if free:
            above = mask | 1 << rng.choice(free)
            table[above] = table[mask] - rng.choice(steps)
    return table


@given(exact_tables())
@settings(max_examples=300, deadline=None)
def test_exact_tables_match_the_definitions(case):
    kind, table = case
    assert fast_witness(table) == oracle_witness(table)
    assert fast_is_additive(table) == oracle_is_additive(table)
    if kind in ("monotone", "additive"):
        assert oracle_witness(table) is None
    if kind == "additive":
        assert oracle_is_additive(table)


@given(float_tables())
@settings(max_examples=300, deadline=None)
def test_float_tables_match_the_definitions(table):
    assert fast_witness(table) == oracle_witness(table)
    assert fast_is_additive(table) == oracle_is_additive(table)


def test_keys_are_integer_numerators_for_a_shared_denominator():
    table = [Fraction(k, 12) for k in range(8)]
    keys, tol = table_keys(table)
    assert keys == list(range(8)) and tol == 0
    assert all(type(k) is int for k in keys)


def test_many_coprime_denominators_keep_fraction_keys():
    table = [Fraction(k, p) for k, p in enumerate(PRIMES[-16:])]
    keys, tol = table_keys(table)
    assert keys == table and tol == 0


@pytest.mark.parametrize("n, mask", [(2, 0b01), (2, 0b10), (4, 0b0110), (4, 0b1011)])
def test_a_nan_entry_is_refused_by_its_subset(n, mask):
    # no comparison with NaN is true, so neither end check nor sweep sees it
    table = [bin(m).count("1") / n for m in range(1 << n)]
    space = _space_for(table)
    assert validate_capacity(space, table).value(mask) == table[mask]
    table[mask] = float("nan")
    with pytest.raises(ValueError, match="not finite") as err:
        validate_capacity(space, table)
    assert str(space.labels(mask)) in str(err.value)


# -- cost guard ---------------------------------------------------------------

POINTS = 16
COUNTED = ("__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__add__", "__radd__")


@pytest.fixture()
def fraction_ops(monkeypatch):
    """Counts Fraction comparisons and additions, and strings parsed."""
    counts = {"ops": 0, "parsed": 0}

    def counting(method):
        def wrapper(*args):
            counts["ops"] += 1
            return method(*args)
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    new = Fraction.__new__

    def parse(cls, numerator=0, denominator=None, **kw):
        if isinstance(numerator, str):
            counts["parsed"] += 1
        return new(cls, numerator, denominator, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(parse))
    return counts


def _sixteen_point_tables():
    rng = random.Random(5)
    weights = [rng.randint(1, 9) for _ in range(POINTS)]
    total = sum(weights)
    sums = _subset_sums(weights)
    return ([Fraction(s, total) for s in sums],
            [Fraction(s * s, total * total) for s in sums])


def test_validation_cost_does_not_grow_with_the_table(fraction_ops):
    # one comparison per cover pair would be 524 288 on 16 points
    space = make_space([f"p{i}" for i in range(POINTS)])
    for table in _sixteen_point_tables():
        u = validate_capacity(space, table)
        u.is_additive
    assert fraction_ops["ops"] <= 16


def test_space_file_parses_each_string_once(fraction_ops):
    additive, _ = _sixteen_point_tables()
    points = [f"p{i}" for i in range(POINTS)]
    values = {format(m, f"0{POINTS}b")[::-1]: str(v) for m, v in enumerate(additive)}
    act = [str(Fraction(i - 8, 3)) for i in range(POINTS)]
    doc = {"points": points,
           "capacities": {"a": {"mode": "full", "values": values}},
           "acts": {"f": act}}
    distinct = len(set(values.values()) | set(act))
    fraction_ops["parsed"] = fraction_ops["ops"] = 0
    loaded = load_space_file(doc)
    assert loaded.capacities["a"].is_additive
    # under two hundred distinct strings among 65 552 values
    assert fraction_ops["parsed"] == distinct < 200
    assert fraction_ops["ops"] <= 16
