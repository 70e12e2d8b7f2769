"""``validate_batch``, ``validate_capacity`` on float tables and the packed
monotonicity detector against a brute-force oracle on every small input.

Tables: on 1-3 points, every table with numerators in {0, 1, 2} over 2
(9, 81 and 6561 tables).  Mass vectors: on 1-3 points, every vector with
numerators in {-1, ..., 3} over 3 (5, 25 and 125 vectors).  The oracle is
written here from the definitions and shares no code with the package: a
table is accepted when it is 0 on the empty set, 1 on the full set and
monotone over every pair m of subsets of m'; a refused monotone-failing
table's witness is its least decreasing (mask, point) cover pair.  A mass
vector is accepted when no mass is negative and the masses sum to 1; the
first negative mass is the witness (0, its point's mask).

Each input alone, as a one-row batch, must be accepted or refused as the
oracle says, with the oracle's error class and witness; a batch of every
accepted input must pass in the whole-column pass, with no row checked
alone; and a refused row inserted into that batch must raise that row's
error.

Float tables: every table with values in {0, 1/2, 1} on 1-3 points, as
floats, plain and nudged: every entry 0.4e-12 up or down by the parity of
its subset's size (neighbours then differ by 0.8e-12, within the 1e-12 a
float table compares within), or each entry but the two ends 0.6e-11 up or
down (beyond it).  The oracle takes the tolerance at each comparison: the
ends within it of 0 and 1, and no cover pair decreasing by more.  The
packed detector ``core._packed_monotone`` takes every numerator table of
the exact tables above, from offsets at and around its packing bounds, and
must answer True exactly for the monotone tables whose keys all lie in
[0, 2**31).
"""

import itertools
from fractions import Fraction

import pytest

from choquet_tower import core
from choquet_tower.core import (MonotonicityError, NormalizationError, make_space,
                                validate_batch, validate_capacity)

from small_tables import LEVELS, decreases, every_table, is_monotone

SIZES = (1, 2, 3)
#: the tolerance float tables compare within, ``core.TABLE_TOL``
TOL = 1e-12


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _table_oracle(n, nums):
    """(error class, witness) of a table over 2, or (None, None)."""
    if nums[0] != 0 or nums[-1] != 2:
        return NormalizationError, None
    covers = decreases(nums, n)
    # a decrease between any two nested subsets shows on some cover pair
    assert is_monotone(nums) == (not covers)
    return (MonotonicityError, covers[0]) if covers else (None, None)


def _float_oracle(n, table):
    """(error class, witness) of a float table, each comparison within TOL."""
    if abs(table[0]) > TOL or abs(table[-1] - 1) > TOL:
        return NormalizationError, None
    covers = decreases(table, n, TOL)
    return (MonotonicityError, covers[0]) if covers else (None, None)


def _mass_oracle(n, nums):
    """(error class, witness) of a mass vector over 3, or (None, None)."""
    negative = [i for i in range(n) if nums[i] < 0]
    if negative:
        return MonotonicityError, (0, 1 << negative[0])
    if sum(nums) != 3:
        return NormalizationError, None
    return None, None


def _outcome(call):
    try:
        call()
    except (ValueError, TypeError, ArithmeticError) as err:
        return type(err), getattr(err, "witness", None)
    return None, None


def _columns(rows):
    return [list(column) for column in zip(*rows)]


def _no_row_alone(monkeypatch):
    def door(*args, **kwargs):
        raise AssertionError("a row was checked alone")

    for name in ("additive_capacity", "_checked_form", "_checked_table", "_first_decrease"):
        monkeypatch.setattr(core, name, door)


CASES = [("table", n, 2, 1 << n, range(3), _table_oracle) for n in SIZES] + [
    ("masses", n, 3, n, range(-1, 4), _mass_oracle) for n in SIZES]


@pytest.mark.parametrize("kind, n, den, size, entries, oracle", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_every_small_input_is_judged_as_the_oracle_judges_it(
        monkeypatch, kind, n, den, size, entries, oracle):
    space = _space(n)
    good, bad = [], []
    for nums in itertools.product(entries, repeat=size):
        want = oracle(n, nums)
        assert _outcome(lambda: validate_batch(space, [[x] for x in nums], den)) == want
        if kind == "table":
            values = [Fraction(x, den) for x in nums]
            assert _outcome(lambda: validate_capacity(space, values)) == want
        (bad if want[0] else good).append((nums, want))
    assert good and bad
    # refused rows, a spread of them on three points, each inserted among
    # every accepted row: the first bad row is the inserted one
    rows = [list(nums) for nums, _ in good]
    stride = max(1, len(bad) // 120)
    for k, (nums, want) in enumerate(bad[::stride]):
        at = k % (len(rows) + 1)
        batch = _columns(rows[:at] + [list(nums)] + rows[at:])
        assert _outcome(lambda: validate_batch(space, batch, den)) == want
    # every accepted row at once, in the whole-column pass alone
    _no_row_alone(monkeypatch)
    columns = _columns(rows)
    assert validate_batch(space, columns, den) == (kind, columns, den)


def _nudged(table, step, ends):
    # each entry moved by step, up on a subset of even size and down on an
    # odd one; the empty and the full set's entries too when ends is true
    last = len(table) - 1
    return [x + (step if m.bit_count() % 2 == 0 else -step)
            if ends or 0 < m < last else x for m, x in enumerate(map(float, table))]


@pytest.mark.parametrize("n", SIZES)
def test_every_small_float_table_is_judged_within_the_tolerance(n):
    space, seen = _space(n), set()
    for table in every_table(n, LEVELS):
        for floats in (_nudged(table, 0, True), _nudged(table, 0.4e-12, True),
                       _nudged(table, 0.6e-11, False)):
            want = _float_oracle(n, floats)
            assert _outcome(lambda: validate_capacity(space, floats)) == want, floats
            seen.add(want[0] or ("within" if decreases(floats, n) else "accepted"))
    # a refusal of each kind, and an accepted table that decreases within TOL
    assert seen == {NormalizationError, MonotonicityError, "accepted", "within"} - (
        {MonotonicityError, "within"} if n == 1 else set())


#: offsets at and around the detector's two packing bounds, 2**15 and 2**31
OFFSETS = (-1, 0, (1 << 15) - 2, (1 << 31) - 2)


@pytest.mark.parametrize("n", SIZES)
def test_the_packed_detector_judges_every_small_table_as_the_oracle(n):
    answers = set()
    for offset in OFFSETS:
        for nums in every_table(n, range(offset, offset + 3)):
            want = all(0 <= k < 1 << 31 for k in nums) and is_monotone(nums)
            assert core._packed_monotone(n, nums) == want, nums
            answers.add(want)
    assert answers == {True, False}
