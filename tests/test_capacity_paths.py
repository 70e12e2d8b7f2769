"""One path per capacity operation: the float mixture loop of ``mu`` and
the pointwise comparison of a table against a mass vector."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower.category import mu
from choquet_tower.choquet import choquet_integral
from choquet_tower.core import (TABLE_TOL, Capacity, FiniteSpace,
                                additive_capacity, validate_capacity,
                                values_close)
from choquet_tower.uncertainty import UncertaintySpace, epsilon

_weights = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)


def _float_masses(draw, n):
    raw = draw(st.lists(_weights, min_size=n, max_size=n)
               .filter(lambda w: sum(w) > 1e-3))
    total = sum(raw)
    return [w / total for w in raw]


def _subset_sums(masses):
    sums = [0.0]
    for m in masses:
        sums += [s + m for s in sums]
    return sums


@st.composite
def float_averaging(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    space = FiniteSpace(tuple("abcde"[:n]))
    caps = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        cap = additive_capacity(space, _float_masses(draw, n))
        caps.setdefault(cap, cap)
    us = UncertaintySpace(space, tuple(
        (f"c{j}", cap) for j, cap in enumerate(caps.values())))
    weights = _float_masses(draw, len(caps))
    if draw(st.booleans()):
        v = additive_capacity(us.capacity_space, weights)
    else:
        v = validate_capacity(us.capacity_space, _subset_sums(weights))
    return us, v


@given(float_averaging())
@settings(max_examples=150, deadline=None)
def test_float_mu_is_the_per_capacity_accumulation(data):
    us, v = data
    assert us.batch is None and v.exact_form is None
    averaged = mu(us, v)
    expected = [0] * len(us.base)
    for weight, (_, cap) in zip(v.singleton_masses(), us.capacities):
        if weight:
            for i, m in enumerate(cap.singleton_masses()):
                expected[i] += weight * m
    assert averaged.singleton_masses() == tuple(expected)
    for mask in us.base.all_masks():
        dense = choquet_integral(v, epsilon(us, mask))
        assert values_close(averaged.value(mask), dense, TABLE_TOL)


def _ten_point_pair():
    rng = random.Random(10)
    space = FiniteSpace(tuple(f"p{i}" for i in range(10)))
    weights = [rng.randint(1, 9) for _ in space.points]
    masses = additive_capacity(space, [Fraction(w, sum(weights)) for w in weights])
    table = validate_capacity(space, [masses.value(m) for m in space.all_masks()])
    return space, masses, table


def test_table_against_masses_compares_pointwise():
    space, masses, table = _ten_point_pair()
    assert masses.exact_form is not None and table.exact_form is not None
    assert table == masses and masses == table
    assert table.equals(masses) and masses.equals(table)
    # every subset is compared: a table off the masses at any one mask
    # between the ends is told apart from them, either way round
    space = FiniteSpace(("a", "b", "c", "d"))
    masses = additive_capacity(space, [Fraction(k, 10) for k in (1, 2, 3, 4)])
    values = [masses.value(m) for m in space.all_masks()]
    for mask in range(1, space.full_mask):
        # an exact change keeps an exact form; a float one leaves values
        for bump in (Fraction(1, 1000), 1e-3):
            table = values.copy()
            table[mask] += bump
            changed = Capacity(space, table=table)
            assert changed != masses and masses != changed, mask
            assert not changed.equals(masses) and not masses.equals(changed), mask


def test_table_against_masses_sees_one_changed_entry():
    space, masses, table = _ten_point_pair()
    values = [table.value(m) for m in space.all_masks()]
    # every mass is at least 1/90, so a smaller raise keeps the table monotone
    values[0b0101100110] += Fraction(1, 10**6)
    changed = validate_capacity(space, values)
    assert changed != masses and masses != changed
    assert not changed.equals(masses) and not masses.equals(changed)
