"""``validate_tables`` checks a batch of dense tables over one denominator
as one.

Its oracle is the per-table loop it replaced: each table of the batch
through ``validate_capacity(space, form=…)`` in turn, which raises for the
first bad table.  A good batch must build equal capacities with equal forms
and hashes; a bad one must raise that table's error class, message and
witness.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core, ellsberg, uncertainty
from choquet_tower.core import (MonotonicityError, make_space, table_capacities,
                                validate_capacity, validate_tables)
from choquet_tower.ellsberg import UrnParams, build_urn_space

#: defects of one table of a batch
BAD_KINDS = ("decrease", "empty", "full", "count", "float", "bool")
#: defects of the batch's one denominator
BAD_DENS = ("float-den", "zero-den", "negative-den")


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _monotone_form(rng, n):
    """Numerators of a monotone, normalized table over a random denominator,
    sometimes scaled by a common factor."""
    size = 1 << n
    nums = [0] * size
    for mask in range(1, size):
        below = max(nums[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        nums[mask] = below + rng.randint(0, 3) * rng.randint(0, 1)
    nums[-1] += 1
    k = rng.choice([1, 1, 2, 6])
    return [k * x for x in nums], k * nums[-1]


def _monotone_batch(rng, n, count):
    """Monotone tables as one batch over the lcm of their denominators,
    sometimes with every numerator and the denominator negated."""
    forms = [_monotone_form(rng, n) for _ in range(count)]
    den = math.lcm(*(d for _, d in forms))
    tables = [[x * (den // d) for x in nums] for nums, d in forms]
    if rng.random() < 0.2:
        return [[-x for x in nums] for nums in tables], -den
    return tables, den


def _broken(rng, nums, den, kind):
    """The table's numerators with one defect of the given kind."""
    nums = list(nums)
    size = len(nums)
    if kind == "decrease":
        # a mask other than the empty set where the space allows one
        mask = rng.randrange(size > 2, size - 1)
        above = mask | 1 << rng.choice([i for i in range(size.bit_length() - 1)
                                        if not mask >> i & 1])
        nums[mask] = nums[above] + (1 if den > 0 else -1)
    elif kind == "empty":
        nums[0] += 1
    elif kind == "full":
        nums[-1] += 1
    elif kind == "count":
        nums = nums[:-1] if rng.random() < 0.5 else nums + [den]
    elif kind == "float":
        nums[rng.randrange(size)] = 0.5
    elif kind == "bool":
        nums[0] = False
    return nums


def _broken_den(tables, den, kind):
    """The batch with a defect of the given kind in its denominator."""
    if kind == "float-den":
        return tables, float(den)
    if kind == "zero-den":
        return tables, 0
    return [[abs(x) for x in nums] for nums in tables], -abs(den)


def _outcome(build):
    try:
        return build(), None
    except (ValueError, TypeError, ArithmeticError) as err:
        return None, (type(err), str(err), getattr(err, "witness", None))


def _per_table(space, keys, den):
    size = 1 << len(space)
    return [validate_capacity(space, form=(keys[s:s + size], den))
            for s in range(0, len(keys), size)]


def _batch(space, keys, den):
    return table_capacities(space, *validate_tables(space, keys, den))


def _joined(tables):
    return [x for nums in tables for x in nums]


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_a_good_batch_builds_what_the_per_table_loop_builds(seed, n, count):
    rng = random.Random(seed)
    space = _space(n)
    tables, den = _monotone_batch(rng, n, count)
    keys = _joined(tables)
    caps = _batch(space, keys, den)
    oracle = _per_table(space, keys, den)
    assert len(caps) == count
    for cap, want in zip(caps, oracle):
        assert cap.exact_form == want.exact_form
        assert cap == want and hash(cap) == hash(want)
        values = [Fraction(x, cap._den) for x in cap._table]
        assert hash(cap) == hash(validate_capacity(space, values))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=300), st.sampled_from(BAD_KINDS + BAD_DENS))
@settings(max_examples=150, deadline=None)
def test_a_bad_batch_raises_what_its_first_bad_table_raises(seed, n, count, kind):
    rng = random.Random(seed)
    if kind == "decrease":
        n = max(n, 2)  # one point leaves no decrease that keeps the ends
    space = _space(n)
    tables, den = _monotone_batch(rng, n, count)
    if kind in BAD_DENS:
        tables, den = _broken_den(tables, den, kind)
    else:
        where = rng.randrange(count)
        tables[where] = _broken(rng, tables[where], den, kind)
        if rng.random() < 0.3 and where + 1 < count:
            # a later table bad in another way must not mask the first one
            later = rng.randrange(where + 1, count)
            tables[later] = _broken(rng, tables[later], den, rng.choice(BAD_KINDS))
    keys = _joined(tables)
    _, error = _outcome(lambda: _batch(space, keys, den))
    _, want = _outcome(lambda: _per_table(space, keys, den))
    event(f"{kind}: {want[0].__name__ if want else None}")
    assert error == want
    if kind in ("empty", "full", "count", "float", "bool", "float-den", "zero-den"):
        assert error is not None


def test_a_decrease_reports_its_own_table_mask_and_values():
    space = _space(2)
    good = [0, 1, 1, 2]
    bad = [0, 4, 1, 2]
    with pytest.raises(MonotonicityError) as err:
        validate_tables(space, good + good + bad + good, 2)
    assert err.value.witness == (1, 3)
    assert str(err.value) == "capacity decreases from ('p0',) (2) to ('p0', 'p1') (1)"


def test_an_empty_batch_builds_nothing():
    assert _batch(_space(2), [], 1) == []


def test_the_urn_is_checked_in_one_batch_and_one_sweep(monkeypatch):
    calls = {"batch": [], "sweep": 0, "single": 0}
    batch, sweep = uncertainty.validate_tables, core._first_decrease

    def counted_batch(space, keys, den):
        calls["batch"].append(len(keys) >> len(space))
        return batch(space, keys, den)

    def counted_sweep(*args):
        calls["sweep"] += 1
        return sweep(*args)

    def single(*args, **kwargs):
        calls["single"] += 1
        raise AssertionError("a table was checked alone")

    monkeypatch.setattr(uncertainty, "validate_tables", counted_batch)
    monkeypatch.setattr(ellsberg, "validate_capacity", single)
    monkeypatch.setattr(core, "_checked_table", single)
    monkeypatch.setattr(core, "_checked_form", single)
    monkeypatch.setattr(core, "_first_decrease", counted_sweep)
    urn = build_urn_space(UrnParams(300, 2, Fraction(3, 5)))
    assert len(urn.capacities) == 601
    assert calls == {"batch": [601], "sweep": 1, "single": 0}
