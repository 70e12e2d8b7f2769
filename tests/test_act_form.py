"""Acts built from their exact form, against the Fraction definitions.

``xi``, act sums, differences and exact multiples, and the law-suite
draws build an act's integer numerators over one denominator directly, and
its values are derived from them only when asked for.  The oracles are the
value definitions: ``choquet_sum`` per capacity for ``xi``, value
arithmetic for ``+``, ``-`` and ``scale``.  ``epsilon`` and dense ``mu``,
which are their value definitions, are checked against
``Capacity.value`` and the defining table.  Floats and values too coprime
to share a denominator take the value path, so every kind is drawn.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.category import mu
from choquet_tower.choquet import choquet_sum
from choquet_tower.core import (Act, Capacity, FiniteSpace, SpaceMismatchError,
                                additive_capacity, is_exact, validate_batch,
                                values_close)
from choquet_tower.ellsberg import UrnParams, build_urn_space
from choquet_tower.uncertainty import UncertaintySpace, epsilon, xi

#: primes between 1000 and 1300: values over them soon share no exact form
PRIMES = [p for p in range(1001, 1300, 2)
          if all(p % d for d in range(2, int(p ** 0.5) + 1))]
KINDS = ["shared", "prime", "int", "float"]


def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


def _number(rng: random.Random, kind: str, num: int):
    if kind == "shared":
        return Fraction(num, 12)
    if kind == "prime":
        return Fraction(num, rng.choice(PRIMES))
    if kind == "int":
        return num
    return num / 7


def _capacity(rng: random.Random, space: FiniteSpace, kind: str) -> Capacity:
    """A monotone table or a mass vector of one kind of value, unnormalized
    (the integral and the evaluation act need no normalization)."""
    n = len(space)
    if rng.random() < 0.5:
        return Capacity(space, masses=tuple(_number(rng, kind, rng.randint(0, 9))
                                            for _ in range(n)))
    table = [_number(rng, kind, 0)] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(table[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        table[mask] = below + _number(rng, kind, rng.randint(0, 3))
    return Capacity(space, table=tuple(table))


def _values(rng: random.Random, space: FiniteSpace, kind: str) -> tuple:
    pool = [_number(rng, kind, rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
    return tuple(rng.choice(pool) for _ in space.points)


def _act(rng: random.Random, space: FiniteSpace, kind: str) -> Act:
    """An act of one kind of value, built from its values, or, when it has
    one, from its form scaled by a random factor (sign included)."""
    values = _values(rng, space, kind)
    form = core._exact_form(values)
    if form is None or rng.random() < 0.5:
        return Act(space, values)
    k = rng.choice([1, 2, 3, -1, -6])
    return Act(space, form=([n * k for n in form[0]], form[1] * k))


@st.composite
def spaces_and_acts(draw):
    """An uncertainty space of 1-6 capacities on 1-5 points, and an act."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    space = _space(draw(st.integers(min_value=1, max_value=5)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    caps = dict.fromkeys(_capacity(rng, space, kind) for kind in kinds)
    us = UncertaintySpace(space, tuple((f"c{i}", cap) for i, cap in enumerate(caps)))
    return us, _act(rng, space, draw(st.sampled_from(KINDS)))


def _same(got: tuple, want: tuple) -> None:
    # exact values equal exactly, a float within the value tolerance
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert is_exact(a) == is_exact(b)
        assert a == b if is_exact(a) else values_close(a, b)


@given(spaces_and_acts())
@settings(max_examples=300, deadline=None)
def test_xi_matches_the_telescoping_sum(case):
    us, f = case
    got = xi(us, f)
    event("form" if "exact_form" in vars(got) and "values" not in vars(got) else "values")
    want = Act(us.capacity_space,
               tuple(choquet_sum(cap.value, f) for _, cap in us.capacities))
    _same(got.values, want.values)


@given(spaces_and_acts())
@settings(max_examples=200, deadline=None)
def test_epsilon_reports_each_capacity_value(case):
    us, _ = case
    for mask in us.base.all_masks():
        got = epsilon(us, mask)
        want = tuple(cap.value(mask) for _, cap in us.capacities)
        assert got.values == want
        assert list(map(type, got.values)) == list(map(type, want))


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(KINDS),
       st.sampled_from(KINDS),
       st.sampled_from([0, 3, -2, Fraction(5, 7), Fraction(-1, 4), 0.5]))
@settings(max_examples=300, deadline=None)
def test_act_arithmetic_matches_value_arithmetic(seed, kind_f, kind_g, c):
    rng = random.Random(seed)
    space = _space(rng.randint(1, 6))
    f, g = _act(rng, space, kind_f), _act(rng, space, kind_g)
    event("both forms" if f.exact_form and g.exact_form else "values")
    for got, want in ((f + g, [a + b for a, b in zip(f.values, g.values)]),
                      (f - g, [a - b for a, b in zip(f.values, g.values)]),
                      (f.scale(c), [c * v for v in f.values])):
        assert got.values == tuple(want)
        assert list(map(is_exact, got.values)) == list(map(is_exact, want))
        if got.exact_form is not None:
            assert got.exact_form == core._checked_form(got.exact_form, len(space))


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["shared", "prime", "int"]))
@settings(max_examples=200, deadline=None)
def test_equal_acts_from_either_entry_compare_and_hash_equal(seed, kind):
    rng = random.Random(seed)
    space = _space(rng.randint(1, 8))
    values = tuple(Fraction(v) for v in _values(rng, space, kind))
    den = 1
    for v in values:
        den = den * v.denominator
    k = rng.choice([1, 5, -3])
    nums = [int(v * den) * k for v in values]
    from_values, from_form = Act(space, values), Act(space, form=(nums, den * k))
    assert from_form == from_values and from_values == from_form
    assert hash(from_form) == hash(from_values)
    assert from_form.values == values
    assert all(type(v) is Fraction for v in from_form.values)
    # the form kept is the reduced one the values would derive, where they derive one
    reduced = core._exact_form(values)
    assert reduced is None or from_form.exact_form == reduced
    assert from_form.exact_form[1] > 0


BAD_FORMS = [
    (lambda size: ([0] * (size + 1), 1), SpaceMismatchError),
    (lambda size: ([0] * (size - 1) + [0.5], 1), TypeError),
    (lambda size: ([0] * (size - 1) + [True], 1), TypeError),
    (lambda size: ([0] * size, Fraction(1)), TypeError),
    (lambda size: ([0] * size, 1.0), TypeError),
    (lambda size: ([0] * size, 0), ZeroDivisionError),
]


@pytest.mark.parametrize("make,error", BAD_FORMS)
def test_act_form_errors_mirror_the_capacity_doors(make, error):
    space = _space(3)
    nums, den = make(8)
    with pytest.raises(error):
        validate_batch(space, [[x] for x in nums], den)
    with pytest.raises(error):
        additive_capacity(space, form=make(3))
    with pytest.raises(error):
        Act(space, form=make(3))


def test_an_act_takes_its_values_or_its_form():
    space = _space(2)
    with pytest.raises(TypeError):
        Act(space)
    with pytest.raises(TypeError):
        Act(space, (1, 2), form=([1, 2], 1))


def test_values_and_form_are_each_derived_once(monkeypatch):
    space = _space(3)
    derived = []
    derive = core._exact_form
    monkeypatch.setattr(core, "_exact_form", lambda v: derived.append(v) or derive(v))
    f = Act(space, (Fraction(1, 2), 3, Fraction(-2, 3)))
    assert f.exact_form == f.exact_form == ([3, 18, -4], 6)
    assert len(derived) == 1
    g = Act(space, form=([3, 18, -4], 6))
    assert g.values is g.values and g.values == f.values
    assert derived == [f.values]
    # computed attributes are stored on the instance, with no lock taken
    for cls, name in ((Act, "values"), (Act, "exact_form"), (Act, "exact_chain"),
                      (Act, "chain_blocks"), (Capacity, "is_additive"), (Capacity, "_hash"),
                      (UncertaintySpace, "is_additive"), (UncertaintySpace, "capacities")):
        assert type(vars(cls)[name]) is core.once


@given(st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_dense_mu_matches_its_defining_table(seed, additive_caps):
    rng = random.Random(seed)
    base = _space(rng.randint(2, 3))
    caps = []
    for _ in range(rng.randint(2, 4)):
        w = [rng.randint(0, 4) for _ in base.points]
        if additive_caps and sum(w):
            caps.append(additive_capacity(base, form=(w, sum(w))))
        elif not additive_caps:
            caps.append(_checked_table(base, _monotone_form(rng, len(base))))
    caps = list(dict.fromkeys(caps))
    if len(caps) < 2:
        return
    us = UncertaintySpace(base, tuple((f"c{i}", c) for i, c in enumerate(caps)))
    v = _checked_table(us.capacity_space, _monotone_form(rng, len(caps)))
    event("dense" if not (v.is_additive and us.is_additive) else "masses")
    got = mu(us, v)
    want = [choquet_sum(v.value, epsilon(us, mask)) for mask in base.all_masks()]
    assert [got.value(m) for m in base.all_masks()] == want
    assert got.exact_form is not None


def _checked_table(space: FiniteSpace, form: tuple[list[int], int]) -> Capacity:
    # the one-table form check, as a batch that fails runs it row by row
    return core._checked_table(space, *core._checked_form(form, 1 << len(space)))


def _monotone_form(rng: random.Random, n: int) -> tuple[list[int], int]:
    # integer draws pushed up along inclusion, over 16, with 0 and 1 at the ends
    nums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        nums[mask] = max([rng.randint(0, 16)]
                         + [nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1])
    nums[-1] = 16
    return nums, 16


# -- tooling guard ---------------------------------------------------------------

@pytest.fixture()
def fractions_built(monkeypatch):
    """Counts Fraction constructions."""
    counts = {"n": 0}
    new = Fraction.__new__

    def counted(cls, *args, **kw):
        counts["n"] += 1
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return counts


def test_xi_builds_no_fraction_on_the_z_urn_space(fractions_built):
    # 2 001 capacities; the value path built one Fraction per capacity
    us = build_urn_space(UrnParams(1000, 2, Fraction(3, 5)))
    assert len(us.capacities) == 2001
    f = Act(us.base, (Fraction(3, 5), 0, Fraction(3, 5)))
    fractions_built["n"] = 0
    got = xi(us, f)
    assert fractions_built["n"] == 0
    assert got.values == tuple(choquet_sum(cap.value, f) for _, cap in us.capacities)
