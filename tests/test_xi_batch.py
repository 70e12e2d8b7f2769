"""``xi`` integrates an act against all dense tables of a space at once.

The oracle is the one-capacity kernel, ``integral_form``, per capacity: its
numerator over its own denominator.  The batched path must agree on spaces of
many tables with mixed denominators, whose batch ``tables`` joins them over
their lcm, and on the same tables handed over as one batch
(``UncertaintySpace.of_tables``); on the constant and all-zero acts; and a
space holding a mass vector must take the per-capacity path.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower.choquet import choquet_sum, integral_form
from choquet_tower.core import (Act, additive_capacity, constant_act, make_space,
                                validate_capacity)
from choquet_tower.uncertainty import UncertaintySpace, xi


def _tables(rng, n, count):
    """Distinct monotone tables on n points as forms over mixed denominators."""
    forms = []
    for _ in range(count):
        size = 1 << n
        nums = [0] * size
        for mask in range(1, size):
            below = max(nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
            nums[mask] = below + rng.randint(0, 5) * rng.randint(0, 1)
        nums[-1] += rng.randint(1, 7)
        forms.append((nums, nums[-1]))
    return forms


def _checked(space, forms):
    return [validate_capacity(space, form=form) for form in forms]


def _space_of(space, caps):
    distinct = list(dict.fromkeys(caps))
    return UncertaintySpace(space, tuple((f"c{i}", cap) for i, cap in enumerate(distinct)))


def _batch_space_of(us):
    """The space's tables handed over as one batch, under the same names."""
    return UncertaintySpace.of_tables(us.base, us.names, *us.tables)


def _act(rng, space):
    return Act(space, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in space.points))


def _per_capacity(us, f):
    values = []
    for _, cap in us.capacities:
        num, den = integral_form(cap, f)
        values.append(Fraction(num, den))
    return tuple(values)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=6),
       st.integers(min_value=8, max_value=60))
@settings(max_examples=80, deadline=None)
def test_xi_on_dense_tables_matches_integral_form_per_capacity(seed, n, count):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    us = _space_of(space, _checked(space, _tables(rng, n, count)))
    assert us.tables is not None
    batch = _batch_space_of(us)
    acts = [_act(rng, space), constant_act(space, Fraction(rng.randint(-5, 5), 3)),
            constant_act(space, 0), Act(space, (0,) * n)]
    for f in acts:
        got = xi(us, f)
        assert got.values == _per_capacity(us, f)
        assert got.values == tuple(choquet_sum(cap.value, f) for _, cap in us.capacities)
        assert xi(batch, f).exact_form == got.exact_form


def test_the_constant_and_zero_acts_integrate_to_themselves():
    rng = random.Random(5)
    space = make_space(["a", "b", "c"])
    us = _space_of(space, _checked(space, _tables(rng, 3, 12)))
    assert len(us.capacities) >= 8
    for built in (us, _batch_space_of(us)):
        count = len(built.names)
        assert xi(built, constant_act(space, Fraction(7, 3))).values == (Fraction(7, 3),) * count
        zero = xi(built, Act(space, (0, 0, 0)))
        assert zero.values == (0,) * count
        assert zero.exact_form[0] == [0] * count


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_a_space_mixing_tables_and_masses_takes_each_capacitys_kernel(seed, n):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    tables = _checked(space, _tables(rng, n, 6))
    masses = []
    for _ in range(4):
        weights = [rng.randint(0, 4) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        total = sum(weights)
        masses.append(additive_capacity(space, [Fraction(w, total) for w in weights]))
    caps = tables[:3] + masses + tables[3:]
    us = _space_of(space, caps)
    assert us.tables is None
    for f in (_act(rng, space), constant_act(space, 2), Act(space, (0,) * n)):
        assert xi(us, f).values == _per_capacity(us, f)
        assert xi(us, f).values == tuple(choquet_sum(cap.value, f) for _, cap in us.capacities)
