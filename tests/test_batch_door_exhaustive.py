"""``validate_batch`` against a brute-force oracle on every small input.

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
"""

import itertools
from fractions import Fraction

import pytest

from choquet_tower import core
from choquet_tower.core import (MonotonicityError, NormalizationError, make_space,
                                validate_batch, validate_capacity)

SIZES = (1, 2, 3)


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _table_oracle(n, nums):
    """(error class, witness) of a table over 2, or (None, None)."""
    full = (1 << n) - 1
    if nums[0] != 0 or nums[full] != 2:
        return NormalizationError, None
    monotone = all(nums[small] <= nums[large]
                   for small in range(full + 1) for large in range(full + 1)
                   if small & large == small)
    covers = [(mask, mask | 1 << i) for mask in range(full + 1) for i in range(n)
              if not mask >> i & 1 and nums[mask] > nums[mask | 1 << i]]
    # a decrease between any two nested subsets shows on some cover pair
    assert monotone == (not covers)
    return (None, None) if monotone else (MonotonicityError, covers[0])


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
