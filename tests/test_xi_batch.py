"""``xi`` integrates an act against a space's whole ``batch`` at once.

The oracle is the definition, the telescoping sum ``choquet_sum`` against
each capacity's ``value``.  The batched path must agree on many dense
tables with mixed denominators handed over as one batch of mask columns
over their lcm (``UncertaintySpace.of_columns``), and with the same
capacities given as pairs, which keep no batch; on a one-point base, where
a batch of tables has 2 columns and one of mass vectors 1, and on a single
capacity; on the constant and all-zero acts, the last with an empty chain.
A result that is one column as it stands keeps the batch's list.  The
steps of a chain are divided by their gcd with the result's denominator
before any column is multiplied, so the form must be the door's reduction
of the unreduced sum, also when the steps share factors with the
denominator.  On a batch of mass vectors, which ``mu`` reads, ``xi``
integrates each capacity with ``choquet_integral``, as it does on a space
of pairs, mixing tables and masses or holding a float.  ``mu`` over a
batch of additive dense tables reads their singleton columns and must
agree with its defining table, also for point-mass weights.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import core, uncertainty
from choquet_tower.category import mu
from choquet_tower.choquet import choquet_integral, choquet_sum
from choquet_tower.core import (Act, additive_capacity, constant_act, make_space,
                                validate_capacity)
from choquet_tower.uncertainty import UncertaintySpace, epsilon, xi


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


def _masses(rng, n, count):
    """Mass vectors on n points as forms whose reduced denominators differ."""
    forms = []
    for _ in range(count):
        weights = [rng.randint(0, 9) for _ in range(n)]
        weights[rng.randrange(n)] += rng.randint(1, 9)
        forms.append((weights, sum(weights)))
    return forms


def _checked(space, forms):
    # each table through the one-table form check
    return [core._checked_table(space, *core._checked_form(form, 1 << len(space)))
            for form in forms]


def _space_of(space, caps):
    distinct = list(dict.fromkeys(caps))
    return UncertaintySpace(space, tuple((f"c{i}", cap) for i, cap in enumerate(distinct)))


def _batch_space_of(us):
    """The space's capacities handed over as one batch, under the same
    names: their numerators as columns over the lcm of their denominators."""
    forms = [cap.exact_form for _, cap in us.capacities]
    den = math.lcm(*(d for _, d in forms))
    rows = [[n * (den // d) for n in nums] for nums, d in forms]
    return UncertaintySpace.of_columns(us.base, us.names, [list(c) for c in zip(*rows)], den)


def _act(rng, space):
    return Act(space, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in space.points))


def _per_capacity(us, f):
    return tuple(choquet_sum(cap.value, f) for _, cap in us.capacities)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=6),
       st.integers(min_value=8, max_value=60))
@settings(max_examples=80, deadline=None)
def test_xi_on_dense_tables_matches_choquet_sum_per_capacity(seed, n, count):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    us = _space_of(space, _checked(space, _tables(rng, n, count)))
    assert us.batch is None
    batch = _batch_space_of(us)
    acts = [_act(rng, space), constant_act(space, Fraction(rng.randint(-5, 5), 3)),
            constant_act(space, 0), Act(space, (0,) * n)]
    for f in acts:
        got = xi(us, f)
        assert got.values == _per_capacity(us, f)
        assert xi(batch, f).exact_form == got.exact_form


def _unreduced(us, f):
    """xi's form before any reduction: every step of f's chain times its
    column of the batch, over the batch's denominator times f's."""
    columns, den = us.batch
    cums, steps, act_den = f.exact_chain
    nums = [sum(step * columns[cum][k] for cum, step in zip(cums, steps))
            for k in range(len(us.names))]
    return nums, act_den * den


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=30))
@settings(max_examples=80, deadline=None)
def test_steps_sharing_factors_with_the_denominator_reduce_as_the_door_does(seed, n, count):
    # every numerator of the act a multiple of a factor of the batch's
    # denominator times the act's, so the chain's steps share it too
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    us = _batch_space_of(_space_of(space, _checked(space, _tables(rng, n, count))))
    den = us.batch[1]
    act_den = rng.choice([1, 2, 3, 4, 6, 12])
    factor = rng.choice([d for d in range(1, 13) if den * act_den % d == 0])
    for _ in range(4):
        nums = [factor * rng.randint(-6, 6) for _ in range(n)]
        f = Act(space, form=(nums, act_den))
        got = xi(us, f)
        want = core._reduced(*_unreduced(us, f))
        assert got.exact_form == (list(want[0]), want[1])
        assert got.values == _per_capacity(us, f)


def test_steps_that_reduce_to_one_take_their_columns_as_they_stand(monkeypatch):
    # (6/5, 3/5, 0) has the steps 3 and 3 over 5; with the batch over 3 the
    # gcd is 3, so both columns are added unmultiplied, over 5
    space = make_space(["a", "b", "c"])
    tables = [[0, 1, 1, 2, 1, 2, 2, 3], [0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 0, 1, 0, 1, 1, 3]]
    us = UncertaintySpace.of_columns(space, ("x", "y", "z"),
                                     [list(column) for column in zip(*tables)], 3)
    f = Act(space, (Fraction(6, 5), Fraction(3, 5), 0))
    assert f.exact_chain == ((1, 3), (3, 3), 5)
    products = []
    monkeypatch.setattr(uncertainty, "mul", lambda a, b: products.append(a) or a * b)
    got = xi(us, f)
    assert products == []
    assert got.exact_form == ([3, 1, 2], 5)
    assert got.values == _per_capacity(us, f)


def test_a_result_that_is_one_column_keeps_the_batchs_list():
    # the bet on b alone has one step, 1, over 1: its result is the column of
    # {b}, which the act's door leaves reduced and keeps without a copy
    space = make_space(["a", "b", "c"])
    tables = [[0, 1, 1, 2, 1, 2, 2, 3], [0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 0, 1, 0, 1, 1, 3]]
    us = UncertaintySpace.of_columns(space, ("x", "y", "z"),
                                     [list(column) for column in zip(*tables)], 3)
    f = Act(space, (0, 1, 0))
    got = xi(us, f)
    assert got.exact_form[0] is us.batch[0][2]
    assert got.exact_form == ([1, 1, 0], 3)
    assert got.values == _per_capacity(us, f)


def test_the_constant_and_zero_acts_integrate_to_themselves():
    rng = random.Random(5)
    space = make_space(["a", "b", "c"])
    us = _space_of(space, _checked(space, _tables(rng, 3, 12)))
    assert len(us.capacities) >= 8
    for built in (us, _batch_space_of(us)):
        count = len(built.names)
        assert xi(built, constant_act(space, Fraction(7, 3))).values == (Fraction(7, 3),) * count
        for zero in (Act(space, (0, 0, 0)), Act(space, form=([0, 0, 0], 7))):
            assert zero.exact_chain == ((), (), 1)
            got = xi(built, zero)
            assert got.values == (0,) * count
            assert got.exact_form == ([0] * count, 1)


def test_an_act_keeps_the_list_form_it_is_given():
    space = make_space(["a", "b", "c"])
    nums = [3, -1, 4]
    assert Act(space, form=(nums, 5)).exact_form[0] is nums
    # a form the door reduces, or a tuple, is stored as a new list
    assert Act(space, form=([6, -2, 8], 10)).exact_form == ([3, -1, 4], 5)
    tuple_form = Act(space, form=((3, -1, 4), 5)).exact_form
    assert type(tuple_form[0]) is list and tuple_form == ([3, -1, 4], 5)


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
    assert us.batch is None
    for f in (_act(rng, space), constant_act(space, 2), Act(space, (0,) * n)):
        assert xi(us, f).values == _per_capacity(us, f)
    _assert_per_capacity(us, _act(rng, space))


def _assert_per_capacity(us, f):
    """xi of a space with no batch of dense tables calls choquet_integral
    once per capacity."""
    calls = []

    def spy(cap, act):
        calls.append(cap)
        return choquet_integral(cap, act)

    real = uncertainty.choquet_integral
    uncertainty.choquet_integral = spy
    try:
        got = xi(us, f)
    finally:
        uncertainty.choquet_integral = real
    assert calls == [cap for _, cap in us.capacities]
    assert got.values == tuple(map(choquet_integral, calls, [f] * len(calls)))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_xi_on_mass_vectors_matches_choquet_sum_per_capacity(seed, n, count):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    caps = [additive_capacity(space, form=form) for form in _masses(rng, n, count)]
    us = _batch_space_of(_space_of(space, caps))
    columns, den = us.batch
    assert [len(column) for column in columns] == [len(us.names)] * n
    for f in (_act(rng, space), constant_act(space, Fraction(-4, 7)), Act(space, (0,) * n)):
        assert xi(us, f).values == _per_capacity(us, f)
    _assert_per_capacity(us, _act(rng, space))


@given(st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_one_point_base_has_strides_two_and_one(seed, dense):
    # on one point there is one capacity of each kind, so K = 1 as well
    rng = random.Random(seed)
    space = make_space(["p"])
    if dense:
        caps = _checked(space, _tables(rng, 1, 1))
    else:
        caps = [additive_capacity(space, form=form) for form in _masses(rng, 1, 1)]
    us = _space_of(space, caps)
    batch = _batch_space_of(us)
    assert len(batch.batch[0]) == (2 if dense else 1)
    f = _act(rng, space)
    assert xi(us, f).values == _per_capacity(us, f) == f.values
    assert xi(batch, f).exact_form == xi(us, f).exact_form


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_mu_over_additive_dense_tables_matches_its_defining_table(seed, n, count):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    caps = [validate_capacity(space, [additive_capacity(space, form=form).value(mask)
                                      for mask in space.all_masks()])
            for form in _masses(rng, n, count)]
    us = _batch_space_of(_space_of(space, caps))
    assert us.is_additive and len(us.batch[0]) == 1 << n
    weights, _ = _masses(rng, len(us.names), 1)[0]
    for v in (additive_capacity(us.capacity_space, form=(weights, sum(weights))),
              additive_capacity(us.capacity_space, form=([0] * (len(weights) - 1) + [1], 1))):
        got = mu(us, v)
        want = [choquet_sum(v.value, epsilon(us, mask)) for mask in space.all_masks()]
        assert [got.value(mask) for mask in space.all_masks()] == want
        assert got.exact_form is not None


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_mu_over_a_column_batch_with_point_mass_weights_matches_its_defining_table(
        seed, n, count, dense):
    # a point mass on capacity j averages down to capacity j itself, read
    # from the singleton columns of a batch of dense tables or mass vectors
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    masses = [additive_capacity(space, form=form) for form in _masses(rng, n, count)]
    if dense:
        tables = [validate_capacity(space, [cap.value(mask) for mask in space.all_masks()])
                  for cap in masses]
        us = _batch_space_of(_space_of(space, tables))
    else:
        us = _batch_space_of(_space_of(space, masses))
    assert len(us.batch[0]) == (1 << n if dense else n)
    size = len(us.names)
    for j, (_, cap) in enumerate(us.capacities):
        v = additive_capacity(us.capacity_space, form=([0] * j + [1] + [0] * (size - j - 1), 1))
        got = mu(us, v)
        want = [choquet_sum(v.value, epsilon(us, mask)) for mask in space.all_masks()]
        assert [got.value(mask) for mask in space.all_masks()] == want
        assert got == cap and got.exact_form is not None


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_a_space_holding_a_float_has_no_batch(seed, n):
    rng = random.Random(seed)
    space = make_space([f"p{i}" for i in range(n)])
    weights = [rng.random() + 0.01 for _ in range(n)]
    floats = additive_capacity(space, [w / sum(weights) for w in weights])
    exact = [additive_capacity(space, form=form) for form in _masses(rng, n, 3)]
    us = _space_of(space, [floats, *exact])
    assert us.capacities[0][1] is floats and floats.exact_form is None
    assert us.batch is None
    _assert_per_capacity(us, _act(rng, space))
