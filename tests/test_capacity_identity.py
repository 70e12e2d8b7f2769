"""Capacity identity: equal set functions hash alike, in either form.

Uncertainty spaces, tower levels and the law suites key dicts on capacities
themselves, so ``a == b`` must imply ``hash(a) == hash(b)`` across the dense
and mass forms and across exact and float values.  Hashing must not scan a
table for additivity, and building a space must not either.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.core import (Capacity, FiniteSpace, additive_capacity,
                                validate_capacity)
from choquet_tower.ellsberg import UrnParams, build_urn_space
from choquet_tower.laws import rand_capacity, run_unc_maps_suite
from choquet_tower.uncertainty import UncertaintySpace, check_separated

LABELS = "abcde"

weight_lists = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=8),
                       min_size=n, max_size=n).filter(any))


def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(LABELS[:n]))


def _dense(cap: Capacity) -> Capacity:
    return validate_capacity(cap.space, [cap.value(m) for m in cap.space.all_masks()])


def _assert_hash_follows_equality(a: Capacity, b: Capacity) -> None:
    if a == b:
        assert hash(a) == hash(b)


@given(weight_lists)
@settings(max_examples=100)
def test_additive_table_hashes_like_its_masses(weights):
    space = _space(len(weights))
    masses = additive_capacity(space, [Fraction(w, sum(weights)) for w in weights])
    table = _dense(masses)
    assert table._table is not None and masses._masses is not None
    assert table == masses and masses == table
    _assert_hash_follows_equality(table, masses)


@given(weight_lists, st.booleans())
@settings(max_examples=100)
def test_equal_exact_and_float_values_hash_alike(weights, dense):
    # a total padded to a power of two keeps every value a dyadic rational,
    # which a float holds exactly
    space = _space(len(weights))
    scale = 1 << sum(weights).bit_length()
    weights[-1] += scale - sum(weights)
    exact = additive_capacity(space, [Fraction(w, scale) for w in weights])
    inexact = additive_capacity(space, [w / scale for w in weights])
    if dense:
        exact, inexact = _dense(exact), _dense(inexact)
    assert exact == inexact
    _assert_hash_follows_equality(exact, inexact)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_random_tables_hash_by_value(n, seed_a, seed_b):
    space = _space(n)
    a = rand_capacity(random.Random(seed_a), space)
    b = rand_capacity(random.Random(seed_b), space)
    _assert_hash_follows_equality(a, b)
    # the same set function, rebuilt with whole values as ints
    copy = Capacity(space, table=tuple(int(v) if v.denominator == 1 else v
                                       for v in map(a.value, space.all_masks())))
    assert a == copy
    _assert_hash_follows_equality(a, copy)


def test_unequal_singletons_tell_capacities_apart():
    space = _space(2)
    half = additive_capacity(space, [Fraction(1, 2)] * 2)
    skew = additive_capacity(space, [Fraction(1, 3), Fraction(2, 3)])
    assert half != skew and _dense(half) != skew
    assert {half: "h", skew: "s"}[_dense(half)] == "h"


@pytest.fixture
def additivity_scans(monkeypatch):
    calls = {"n": 0}
    scan = core._table_is_additive

    def counted(*args):
        calls["n"] += 1
        return scan(*args)

    monkeypatch.setattr(core, "_table_is_additive", counted)
    return calls


def test_building_the_urn_space_scans_no_table(additivity_scans):
    urn = build_urn_space(UrnParams(300, 2, Fraction(3, 5)))
    assert len(urn.capacities) == 601
    assert additivity_scans["n"] == 0
    assert not urn.is_additive
    assert additivity_scans["n"] >= 1


def test_unc_maps_suite_scans_no_table(additivity_scans):
    assert run_unc_maps_suite(seed=7, trials=20).passed
    assert additivity_scans["n"] == 0


class TestNameIndex:
    def test_name_of_matches_either_form(self):
        space = _space(3)
        u = additive_capacity(space, [Fraction(1, 3)] * 3)
        w = rand_capacity(random.Random(4), space)
        us = UncertaintySpace(space, (("w", w), ("u", _dense(u))))
        assert us.name_of(u) == "u"
        assert us.name_of(_dense(u)) == "u"
        assert us.name_of(w) == "w"
        assert us.name_of(additive_capacity(space, [1, 0, 0])) is None

    def test_duplicate_in_other_form_is_refused(self):
        space = _space(2)
        u = additive_capacity(space, [Fraction(1, 4), Fraction(3, 4)])
        pairs = (("u", u), ("t", _dense(u)))
        assert check_separated(pairs) == (False, ("u", "t"))
        with pytest.raises(ValueError, match="'u' and 't'"):
            UncertaintySpace(space, pairs)

    def test_is_additive_needs_every_capacity_additive(self):
        space = _space(2)
        u = additive_capacity(space, [Fraction(1, 4), Fraction(3, 4)])
        upper = validate_capacity(space, [0, Fraction(1, 2), Fraction(1, 2), 1])
        lower = validate_capacity(space, [0, 0, 0, 1])
        assert UncertaintySpace(space, (("u", u), ("d", _dense(upper)))).is_additive
        assert not UncertaintySpace(space, (("u", u), ("l", lower))).is_additive
