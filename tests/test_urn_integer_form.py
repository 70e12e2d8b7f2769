"""The urn family on integer numerators, against the Fraction arithmetic it
replaces, and the checked form entries for tables and masses.

For a whole exponent ``build_urn_space`` hands its tables over as one
batch of integer numerators over 3 (2N)^alpha / 2,
``closed_form_values`` sums weight numerators times k^alpha, and the exact
binomial layer of ``integrate_family`` sums the act's numerators.  The
oracles below are the Fraction loops those paths replace.
"""

import inspect
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.core import (Act, Capacity, MonotonicityError,
                                NormalizationError, SpaceMismatchError,
                                additive_capacity, batch_capacities, is_exact,
                                make_space, validate_batch, validate_capacity)
from choquet_tower.ellsberg import (UrnParams, _weight_numerators, binomial_family,
                                    build_sequence, build_urn_space,
                                    closed_form_values, standard_acts)
from choquet_tower.category import mu
from choquet_tower.hierarchy import integrate_family
from choquet_tower.uncertainty import UncertaintySpace, xi

# -- oracles: the Fraction arithmetic of the urn ------------------------------


def oracle_tables(params):
    """Each u_k's table in mask order, built in Fraction arithmetic."""
    space = make_space(["R", "B", "Y"])
    two_n = 2 * params.big_n
    third = Fraction(1, 3)
    tables = []
    for k in range(two_n + 1):
        blue = 2 * third * params.ratio_power(k)
        yellow = 2 * third * params.ratio_power(two_n - k)
        table = {
            0b000: 0,
            space.mask(["R"]): third,
            space.mask(["B"]): blue,
            space.mask(["Y"]): yellow,
            space.mask(["R", "B"]): third + blue,
            space.mask(["R", "Y"]): third + yellow,
            space.mask(["B", "Y"]): 2 * third,
            0b111: 1,
        }
        tables.append([table[m] for m in range(8)])
    return tables


def oracle_weights(variant, params):
    two_n = 2 * params.big_n
    if variant == "Y":
        return [Fraction(math.comb(two_n, k), 2 ** two_n)
                for k in range(two_n + 1)]
    return [Fraction(1, two_n + 1)] * (two_n + 1)


def oracle_closed_form(variant, params):
    """The closed forms as weighted sums of Fractions."""
    two_n = 2 * params.big_n
    u1 = params.u1
    w = oracle_weights(variant, params)
    third = Fraction(1, 3)
    mean_up = sum(wk * params.ratio_power(k) for k, wk in enumerate(w))
    mean_down = sum(wk * params.ratio_power(two_n - k) for k, wk in enumerate(w))
    return {
        "f1": u1 * third,
        "f2": u1 * 2 * third * mean_up,
        "f3": u1 * 2 * third,
        "f4": u1 * (third + 2 * third * mean_down),
    }


def same_values(a, b):
    """Equal values that print alike and are exact alike."""
    return len(a) == len(b) and all(x == y and str(x) == str(y) and is_exact(x) == is_exact(y)
                                    for x, y in zip(a, b))


def values_of(cap):
    return [cap.value(m) for m in cap.space.all_masks()]


LAYER = {"X": 2, "Y": 2, "Z": 3}

whole_params = st.builds(UrnParams, big_n=st.integers(1, 40), alpha=st.integers(1, 6),
                         u1=st.fractions(Fraction(1, 100), Fraction(99, 100)))


# -- whole exponents: integer numerators ---------------------------------------


@given(whole_params)
@settings(max_examples=60, deadline=None)
def test_tables_and_forms_match_the_fraction_loop(params):
    urn = build_urn_space(params)
    oracle = oracle_tables(params)
    assert len(urn.capacities) == len(oracle) == 2 * params.big_n + 1
    for (name, cap), table in zip(urn.capacities, oracle):
        # values as they print, 0 and 1 at the ends included
        assert same_values(values_of(cap), table), name
        assert all(map(is_exact, values_of(cap)))
        assert cap.exact_form == core._exact_form(table)
    # k = 0 and k = 2N: no blue, no yellow
    assert urn.capacities[0][1].value(0b010) == 0
    assert urn.capacities[-1][1].value(0b100) == 0


@given(whole_params)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_the_fraction_sums(params):
    for variant in LAYER:
        got = closed_form_values(variant, params, LAYER[variant])
        want = oracle_closed_form(variant, params)
        assert same_values(list(got.values()), list(want.values()))
        assert all(map(is_exact, got.values()))
        assert list(got) == list(want)


@given(whole_params, st.sampled_from(["f1", "f2", "f3", "f4"]))
@settings(max_examples=40, deadline=None)
def test_binomial_identity_is_the_mean_of_the_act(params, bet):
    seq = build_sequence("Z", params)
    urn, family = seq.levels[0], seq.levels[1]
    act = xi(urn, standard_acts(urn.base)[bet].map(lambda x: params.u1 * x))
    got = integrate_family(family, act=act)
    want = sum(act.values, start=Fraction(0)) / (2 * params.big_n + 1)
    assert type(got) is Fraction and got == want


def test_binomial_identity_on_mixed_and_float_acts():
    urn = build_urn_space(UrnParams(big_n=2, alpha=2, u1=Fraction(1, 2)))
    family = binomial_family(urn, 2)
    space = urn.capacity_space
    mixed = Act(space, (3, Fraction(-1, 6), 0, Fraction(5, 4), -2))
    got = integrate_family(family, act=mixed)
    assert type(got) is Fraction and got == Fraction(25, 12) / 5
    floats = Act(space, (0.1, 0.2, 0.7, 1.0, -0.3))
    assert integrate_family(family, act=floats) == sum(
        floats.values, start=Fraction(0)) / 5


def test_urn_and_weights_hand_over_their_forms(monkeypatch):
    derived = []
    derive = core._exact_form
    monkeypatch.setattr(core, "_exact_form", lambda v: derived.append(v) or derive(v))
    params = UrnParams(big_n=4, alpha=3, u1=Fraction(3, 5))
    for variant in ("X", "Y"):
        urn = build_urn_space(params)
        assert all(cap.exact_form is not None for _, cap in urn.capacities)
        weights = build_sequence(variant, params).levels[1].capacities[0][1]
        assert weights.exact_form is not None
        assert same_values(weights.singleton_masses(), oracle_weights(variant, params))
        assert all(map(is_exact, weights.singleton_masses()))
    assert derived == []
    assert weights.exact_form == derive(weights.singleton_masses())


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(7, 3)])
def test_non_whole_exponents_keep_the_float_path(alpha):
    params = UrnParams(big_n=5, alpha=alpha, u1=Fraction(3, 5))
    urn = build_urn_space(params)
    for (_, cap), table in zip(urn.capacities, oracle_tables(params)):
        assert same_values(values_of(cap), table)
        assert cap.exact_form is None
        assert any(type(v) is float for v in values_of(cap))
    for variant in LAYER:
        got = closed_form_values(variant, params, LAYER[variant])
        assert same_values(list(got.values()),
                          list(oracle_closed_form(variant, params).values()))


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(7, 3)])
def test_float_urn_takes_one_power_per_count(monkeypatch, alpha):
    # the yellow entries are the blue column reversed, so each k's power is
    # taken once, and each table holds the values, of the same types, that
    # the per-k eight-tuple (0, 1/3, blue, 1/3 + blue, yellow, ..., 2/3, 1) holds
    params = UrnParams(big_n=5, alpha=alpha, u1=Fraction(3, 5))
    tables = oracle_tables(params)
    calls = []
    power = UrnParams.ratio_power
    monkeypatch.setattr(UrnParams, "ratio_power",
                        lambda self, k: calls.append(k) or power(self, k))
    urn = build_urn_space(params)
    assert sorted(calls) == list(range(2 * params.big_n + 1))
    assert len(urn.capacities) == len(tables)
    for (_, cap), table in zip(urn.capacities, tables):
        assert list(cap._table) == table
        assert list(map(type, cap._table)) == list(map(type, table))


# -- the checked form entry ----------------------------------------------------

SPACE = make_space(["a", "b"])
#: a monotone table on two points, 0, 1/4, 1/2 and 1, as twelfths
NUMS, DEN = [0, 3, 6, 12], 12
VALUES = [0, Fraction(1, 4), Fraction(1, 2), 1]


def fractions(nums, den):
    return [Fraction(n, den) for n in nums]


def table_by_form(space, nums, den):
    """A table's form through the form door for tables, ``validate_batch``
    given it as a one-row batch, and the capacity of that row."""
    return batch_capacities(space, *validate_batch(space, [[n] for n in nums], den))[0]


def raised(call):
    try:
        call()
    except Exception as exc:  # the class is what is compared
        return exc
    return None


def assert_same_refusal(form_call, value_call, kind):
    by_form, by_values = raised(form_call), raised(value_call)
    assert type(by_form) is type(by_values) is kind
    if kind is MonotonicityError:
        assert by_form.witness == by_values.witness


def test_form_entry_refuses_a_wrong_length():
    assert_same_refusal(lambda: table_by_form(SPACE, NUMS[:3], DEN),
                        lambda: validate_capacity(SPACE, VALUES[:3]),
                        SpaceMismatchError)
    assert_same_refusal(lambda: additive_capacity(SPACE, form=([1, 1, 1], 3)),
                        lambda: additive_capacity(SPACE, fractions([1, 1, 1], 3)),
                        SpaceMismatchError)


def test_form_entry_refuses_a_non_int_numerator():
    assert_same_refusal(lambda: table_by_form(SPACE, [0, "3", 6, 12], DEN),
                        lambda: validate_capacity(SPACE, [0, "3", Fraction(1, 2), 1]),
                        TypeError)
    assert_same_refusal(lambda: additive_capacity(SPACE, form=(["1", 2], 3)),
                        lambda: additive_capacity(SPACE, ["1", Fraction(2, 3)]),
                        TypeError)
    for other in (3.0, True, Fraction(3)):
        with pytest.raises(TypeError):
            table_by_form(SPACE, [0, other, 6, 12], DEN)
    with pytest.raises(TypeError):
        table_by_form(SPACE, NUMS, 12.0)


def test_form_entry_refuses_a_denominator_below_one():
    with pytest.raises(ZeroDivisionError):
        table_by_form(SPACE, NUMS, 0)
    with pytest.raises(ZeroDivisionError):
        fractions(NUMS, 0)
    assert_same_refusal(lambda: table_by_form(SPACE, NUMS, -DEN),
                        lambda: validate_capacity(SPACE, fractions(NUMS, -DEN)),
                        NormalizationError)
    assert_same_refusal(lambda: additive_capacity(SPACE, form=([1, 2], -3)),
                        lambda: additive_capacity(SPACE, fractions([1, 2], -3)),
                        MonotonicityError)
    # a form negated throughout stands for the same values
    negated = table_by_form(SPACE, [-n for n in NUMS], -DEN)
    assert negated == validate_capacity(SPACE, VALUES)
    assert negated.exact_form == ([0, 1, 2, 4], 4)


def test_form_entry_refuses_unnormalized_ends():
    for nums in ([1, 3, 6, 12], [0, 3, 6, 11], [0, 3, 6, 13]):
        assert_same_refusal(lambda: table_by_form(SPACE, nums, DEN),
                            lambda: validate_capacity(SPACE, fractions(nums, DEN)),
                            NormalizationError)
    assert_same_refusal(lambda: additive_capacity(SPACE, form=([1, 1], 3)),
                        lambda: additive_capacity(SPACE, fractions([1, 1], 3)),
                        NormalizationError)


def test_form_entry_refuses_a_decrease_with_the_same_witness():
    space = make_space(["a", "b", "c"])
    nums = [0, 2, 2, 5, 1, 4, 1, 6]
    assert_same_refusal(lambda: table_by_form(space, nums, 6),
                        lambda: validate_capacity(space, fractions(nums, 6)),
                        MonotonicityError)
    assert raised(lambda: table_by_form(space, nums, 6)).witness == (2, 6)
    assert_same_refusal(lambda: additive_capacity(space, form=([2, -1, 5], 6)),
                        lambda: additive_capacity(space, fractions([2, -1, 5], 6)),
                        MonotonicityError)


def test_form_entry_refuses_values_that_differ_from_it():
    # one stored form: masses beside a form are refused, equal or not, and
    # so is a call with neither; a table's door takes its values alone
    with pytest.raises(TypeError):
        additive_capacity(SPACE, [Fraction(1, 3), Fraction(2, 3)], form=([2, 1], 3))
    with pytest.raises(TypeError):
        additive_capacity(SPACE)
    assert list(inspect.signature(validate_capacity).parameters) == ["space", "table"]


@st.composite
def forms(draw):
    """(n, numerators, denominator): a table in mask order that is monotone or
    has one changed entry and may be unnormalized, over an unreduced
    denominator."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    scale = draw(st.integers(1, 6))
    nums = [0] * size
    for mask in range(1, size):
        below = max(nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        nums[mask] = below + draw(st.integers(0, 3))
    den = nums[-1] or 1
    if draw(st.booleans()):
        den += 1
    if draw(st.booleans()):
        nums[draw(st.integers(0, size - 1))] += draw(st.integers(-2, 2))
    return n, [scale * k for k in nums], scale * den


@given(forms())
@settings(max_examples=200, deadline=None)
def test_form_entry_agrees_with_the_value_entry(case):
    n, nums, den = case
    space = make_space([f"p{i}" for i in range(n)])
    values = fractions(nums, den)
    by_form = raised(lambda: table_by_form(space, nums, den))
    by_values = raised(lambda: validate_capacity(space, values))
    if by_values is None:
        assert by_form is None
        u, v = validate_capacity(space, values), table_by_form(space, nums, den)
        assert v == u and values_of(v) == values
        assert v.exact_form == u.exact_form == core._exact_form(values)
    else:
        assert type(by_form) is type(by_values)
        if isinstance(by_values, MonotonicityError):
            assert by_form.witness == by_values.witness


# -- cost guard ----------------------------------------------------------------

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """Counts Fractions built and Fraction arithmetic."""
    counts = {"built": 0, "ops": 0}

    def counting(method):
        def wrapper(*args):
            counts["ops"] += 1
            return method(*args)
        return wrapper

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    new = Fraction.__new__

    def build(cls, *args, **kw):
        counts["built"] += 1
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(build))
    return counts


def test_urn_tables_do_no_fraction_arithmetic(fraction_ops):
    params = UrnParams(300, 2, Fraction(3, 5))
    fraction_ops.update(built=0, ops=0)
    urn = build_urn_space(params)
    assert fraction_ops["ops"] == 0
    # the tables are kept and hashed on their numerators alone
    assert fraction_ops["built"] == 0
    assert len(urn.capacities) == 601


@pytest.mark.parametrize("variant", ["X", "Y", "Z"])
def test_closed_forms_build_a_handful_of_fractions(fraction_ops, variant):
    built = []
    for big_n in (30, 300):
        params = UrnParams(big_n, 2, Fraction(3, 5))
        fraction_ops.update(built=0, ops=0)
        closed_form_values(variant, params, LAYER[variant])
        built.append(fraction_ops["built"])
    assert built[0] == built[1] <= 16


def test_checked_results_are_still_capacities():
    u = table_by_form(SPACE, NUMS, DEN)
    assert isinstance(u, Capacity) and values_of(u) == VALUES
    m = additive_capacity(SPACE, form=([2, 4], 6))
    assert m.singleton_masses() == (Fraction(1, 3), Fraction(2, 3))
    assert m.exact_form == ([1, 2], 3)


# -- mass-space mu hands its integer sums over ---------------------------------


def _second_order():
    base = make_space(["a", "b", "c"])
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
            [Fraction(1, 5), 0, Fraction(4, 5)],
            [0, 1, 0]]
    # the rows as one batch of mass columns over 30
    columns = [[int(30 * m) for m in column] for column in zip(*rows)]
    us = UncertaintySpace.of_columns(base, ("c0", "c1", "c2"), columns, 30)
    v = additive_capacity(us.capacity_space, fractions([1, 2, 4], 7))
    return us, v


def test_mu_hands_its_sums_to_the_form_entry(monkeypatch):
    us, v = _second_order()
    # both forms are made before mu runs
    assert us.batch and v.exact_form
    derived = []
    derive = core._exact_form
    monkeypatch.setattr(core, "_exact_form", lambda x: derived.append(x) or derive(x))
    averaged = mu(us, v)
    assert derived == []
    want = [sum((w * cap.singleton_masses()[i]
                 for w, (_, cap) in zip(v.singleton_masses(), us.capacities)),
                start=Fraction(0)) for i in range(3)]
    assert same_values(averaged.singleton_masses(), want)
    assert all(map(is_exact, averaged.singleton_masses()))
    assert averaged.exact_form == derive(want)


def test_mu_over_dense_tables_stores_the_form_of_the_mass_batch():
    # a dense additive space averages its singleton values, and stores the
    # same reduced form as the integer sums over a batch of mass vectors
    us, v = _second_order()
    tables = [list(cap._subset_keys()) for _, cap in us.capacities]
    den = math.lcm(*(cap.exact_form[1] for _, cap in us.capacities))
    columns = [[n * (den // cap.exact_form[1]) for n in row]
               for row, (_, cap) in zip(tables, us.capacities)]
    dense = UncertaintySpace.of_columns(us.base, us.names, list(zip(*columns)), den)
    assert len(dense.batch[0]) == 8 and len(us.batch[0]) == 3
    assert mu(dense, v).exact_form == mu(us, v).exact_form
    assert mu(dense, v)._masses is not None


def test_mu_result_is_still_checked():
    us, v = _second_order()
    # an unchecked member with a negative mass reaches mu's result
    bad = Capacity(us.base, masses=(Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
    us = UncertaintySpace(us.base, us.capacities[:2] + (("c2", bad),))
    with pytest.raises(MonotonicityError) as err:
        mu(us, v)
    assert err.value.witness == (0, 0b010)


@pytest.mark.parametrize("two_n", [*range(65), 600])
def test_y_weights_are_the_binomial_coefficients(two_n):
    # both sides of the closed-form check share this helper, so it is held
    # to math.comb here
    nums, den = _weight_numerators("Y", two_n)
    nums = list(nums)
    assert nums == [math.comb(two_n, k) for k in range(two_n + 1)]
    assert den == 2 ** two_n == sum(nums)


@pytest.mark.parametrize("variant", ["X", "Y", "Z"])
def test_closed_forms_hold_no_list_of_weights(variant):
    # the sequence holds Y's 2N+1 binomial weights; the closed form makes its
    # own one at a time, so its peak stays far under the size of that list
    params = UrnParams(300, 2, Fraction(3, 5))
    weights = [math.comb(600, k) for k in range(601)]
    held = sys.getsizeof(weights) + sum(map(sys.getsizeof, weights))
    closed_form_values(variant, params, LAYER[variant])
    tracemalloc.start()
    try:
        closed_form_values(variant, params, LAYER[variant])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held // 8
