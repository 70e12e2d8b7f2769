"""``validate_batch`` checks a batch of dense tables, stored as its mask
columns over one denominator, as one.

Its oracle is the per-table loop on the batch's rows: row k of the columns
(``[c[k] for c in columns]``, short where a column ends early) through
the one-table form check, ``_checked_table(*_checked_form(…))``, in turn,
which raises for the first bad table.  A good batch must build equal
capacities with equal forms and hashes; a bad one, also one with a ragged
column, must raise that table's error class, message and witness.  A
missing or extra column leaves a count that is neither n nor 2**n, which
the batch refuses before any row is checked.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core, ellsberg, uncertainty
from choquet_tower.core import (MonotonicityError, SpaceMismatchError, additive_capacity,
                                batch_capacities, make_space, validate_batch,
                                validate_capacity)
from choquet_tower.ellsberg import UrnParams, build_urn_space

#: defects of one table of a batch ("count" makes its mask's column ragged)
BAD_KINDS = ("decrease", "empty", "full", "count", "float", "bool")
#: defects of the batch's columns as a whole
BAD_COLUMNS = ("short", "long", "missing", "extra")
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


def _rows(columns):
    """The batch's tables: row k holds each column's entry k, and is short
    where a column ends before it."""
    return [[c[k] for c in columns if k < len(c)]
            for k in range(max(map(len, columns), default=0))]


def _per_table(space, columns, den):
    size = 1 << len(space)
    return [core._checked_table(space, *core._checked_form((row, den), size))
            for row in _rows(columns)]


def _batch(space, columns, den):
    return batch_capacities(space, *validate_batch(space, columns, den))


def _columns(tables):
    return [list(column) for column in zip(*tables)]


def _ragged(rng, columns, den, kind):
    """The columns with an entry dropped from or added to one column, or a
    column dropped or added."""
    columns = [list(c) for c in columns]
    m = rng.randrange(len(columns))
    if kind == "short":
        del columns[m][rng.randrange(len(columns[m]))]
    elif kind == "long":
        columns[m].insert(rng.randrange(len(columns[m]) + 1), rng.choice([0, den]))
    elif kind == "missing":
        del columns[m]
    else:
        columns.insert(m, list(columns[m]))
    return columns


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_a_good_batch_builds_what_the_per_table_loop_builds(seed, n, count):
    rng = random.Random(seed)
    space = _space(n)
    tables, den = _monotone_batch(rng, n, count)
    columns = _columns(tables)
    caps = _batch(space, columns, den)
    oracle = _per_table(space, columns, den)
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
    elif kind != "count":
        where = rng.randrange(count)
        tables[where] = _broken(rng, tables[where], den, kind)
        if rng.random() < 0.3 and where + 1 < count:
            # a later table bad in another way must not mask the first one
            later = rng.randrange(where + 1, count)
            tables[later] = _broken(rng, tables[later], den,
                                    rng.choice([k for k in BAD_KINDS if k != "count"]))
    columns = _columns(tables)
    if kind == "count":
        columns = _ragged(rng, columns, den, rng.choice(("short", "long")))
    _, error = _outcome(lambda: _batch(space, columns, den))
    _, want = _outcome(lambda: _per_table(space, columns, den))
    event(f"{kind}: {want[0].__name__ if want else None}")
    assert error == want
    if kind in ("empty", "full", "count", "float", "bool", "float-den", "zero-den"):
        assert error is not None


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=40), st.sampled_from(("good",) + BAD_COLUMNS))
@settings(max_examples=150, deadline=None)
def test_columns_accept_or_refuse_what_the_one_table_path_does(seed, n, count, kind):
    # the one-table path reads the rows, so a ragged column is a count
    # error in the first row it leaves short or long; a missing or extra
    # column leaves a count that is neither n nor 2**n, refused as such,
    # except that one point's table missing a column is one mass column
    rng = random.Random(seed)
    space = _space(n)
    tables, den = _monotone_batch(rng, n, count)
    columns = _columns(tables)
    if kind != "good":
        columns = _ragged(rng, columns, den, kind)
    got = _outcome(lambda: _batch(space, columns, den))
    if len(columns) == n:
        want = _outcome(lambda: [additive_capacity(space, form=(row, den))
                                 for row in _rows(columns)])
    elif kind in ("missing", "extra"):
        want = None, (SpaceMismatchError, f"a batch on {n} points has {len(columns)} "
                      f"columns, need {n} for mass vectors or {1 << n} for tables", None)
    else:
        want = _outcome(lambda: _per_table(space, columns, den))
    event(f"{kind}: {want[1][0].__name__ if want[1] else None}")
    assert (got[1], got[0] and [c.exact_form for c in got[0]]) == (
        want[1], want[0] and [c.exact_form for c in want[0]])
    if len(columns) != n:
        assert (got[1] is None) == (kind == "good")


def test_a_decrease_reports_its_own_table_mask_and_values():
    space = _space(2)
    good = [0, 1, 1, 2]
    bad = [0, 4, 1, 2]
    with pytest.raises(MonotonicityError) as err:
        validate_batch(space, _columns([good, good, bad, good]), 2)
    assert err.value.witness == (1, 3)
    assert str(err.value) == "capacity decreases from ('p0',) (2) to ('p0', 'p1') (1)"


def test_an_empty_batch_builds_nothing():
    assert _batch(_space(2), [[], [], [], []], 1) == []


def test_the_urn_is_checked_in_one_column_pass(monkeypatch):
    # the whole-batch passes decide the urn: no table goes down the
    # one-table path, and the per-table sweep is never reached
    calls = {"batch": [], "single": 0}
    batch = uncertainty.validate_batch

    def counted_batch(space, columns, den):
        calls["batch"].append((len(columns), len(columns[0])))
        return batch(space, columns, den)

    def single(*args, **kwargs):
        calls["single"] += 1
        raise AssertionError("a table was checked alone")

    monkeypatch.setattr(uncertainty, "validate_batch", counted_batch)
    monkeypatch.setattr(ellsberg, "validate_capacity", single)
    monkeypatch.setattr(core, "_checked_table", single)
    monkeypatch.setattr(core, "_checked_form", single)
    monkeypatch.setattr(core, "_first_decrease", single)
    urn = build_urn_space(UrnParams(300, 2, Fraction(3, 5)))
    assert len(urn.capacities) == 601
    assert calls == {"batch": [(8, 601)], "single": 0}
