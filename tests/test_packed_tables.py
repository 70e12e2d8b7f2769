"""Whole-table passes over full tables: the packed monotonicity detector
against the cover-slice sweep it sits in front of, and space-file keys in
mask order against the per-key lookup they skip.

The sweep alone is ``_first_decrease`` with the detector switched off; it
names the least (mask, point) witness and stays the oracle.  The detector
may only skip the sweep: it answers True exactly for int tables in
[0, 2**31) that the sweep finds monotone.
"""

import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.cli import main
from choquet_tower.core import make_space
from choquet_tower.spacefile import load_space_file

#: field bounds of the detector's packings, and values just around them
BOUNDS = (1 << 15, 1 << 31, 1 << 63)
OFFSETS = (0, 1, *(b + d for b in BOUNDS for d in (-2, -1, 0)), -1, -(1 << 15) - 1)
#: offsets whose tables (at most 16 steps of 2 up) stay under 2**31
PACKABLE = (0, 1, (1 << 15) - 2, 1 << 15, (1 << 31) - 40)


def _sweep(n, keys):
    with mock.patch.object(core, "_packed_monotone", return_value=False):
        return core._first_decrease(n, keys, 0)


def _monotone(rng, n, offset):
    """A table of 2**n ints, each at least its subsets' maximum, from offset."""
    size = 1 << n
    keys = [offset] * size
    for mask in range(1, size):
        below = max(keys[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        keys[mask] = below + rng.choice((0, 0, 1, 2))
    return keys


@st.composite
def batches(draw):
    """1-5 tables on 1-8 points, each from an offset at or around a packing
    bound, some with one entry raised above a cover or turned into a
    Fraction or a float."""
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # half the batches hold ints in range alone, so that most of them pack
    if draw(st.booleans()):
        kinds, offsets = ("plain", "decrease"), PACKABLE
    else:
        kinds, offsets = ("plain", "plain", "decrease", "fraction", "float"), OFFSETS
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        table = _monotone(rng, n, draw(st.sampled_from(offsets)))
        kind = draw(st.sampled_from(kinds))
        event(kind)
        mask = rng.randrange(1 << n)
        if kind == "decrease" and mask != (1 << n) - 1:
            above = mask | 1 << rng.choice([i for i in range(n) if not mask >> i & 1])
            table[mask] = table[above] + rng.choice((1, 1 << 16, 1 << 40))
        elif kind == "fraction":
            table[mask] = Fraction(table[mask])
        elif kind == "float":
            table[mask] = float(table[mask])
        tables.append(table)
    return n, tables


@settings(max_examples=300, deadline=None)
@given(batches())
def test_the_detector_agrees_with_the_sweep(case):
    n, tables = case
    for keys in tables:
        swept = _sweep(n, keys)
        packable = all(type(k) is int and 0 <= k < 1 << 31 for k in keys)
        event(f"packable={packable} monotone={swept is None}")
        assert core._packed_monotone(n, keys) == (packable and swept is None)
        assert core._first_decrease(n, keys, 0) == swept


@pytest.mark.parametrize("top", [(1 << 15) - 1, 1 << 15, (1 << 31) - 1])
@pytest.mark.parametrize("n", [1, 4])
def test_a_decrease_just_under_each_bound_is_flagged(top, n):
    # one step down from the top at the full set's last cover pair
    keys = [0] * ((1 << n) - 1) + [top]
    assert core._packed_monotone(n, keys)
    keys[-2], keys[-1] = top, top - 1
    assert not core._packed_monotone(n, keys)
    assert core._first_decrease(n, keys, 0) == _sweep(n, keys) == ((1 << n) - 2, 0)


@pytest.mark.parametrize("top", [1 << 31, (1 << 63) - 1, 1 << 63])
def test_keys_past_the_widest_field_go_to_the_sweep(top):
    keys = [0, top]
    assert not core._packed_monotone(1, keys)
    assert core._first_decrease(1, keys, 0) is None
    assert core._first_decrease(1, keys[::-1], 0) == (0, 0)


# -- space-file keys in mask order ---------------------------------------------


def _key(n, mask):
    return format(mask, f"0{n}b")[::-1]


def _document(n, values):
    """A space file of one full table, as JSON decoding gives it."""
    return json.loads(json.dumps({"points": [f"p{i}" for i in range(n)],
                                  "capacities": {"u": {"mode": "full", "values": values}},
                                  "acts": {"f": [str(i) for i in range(n)]}}))


def _table(n):
    # the additive table of the uniform measure: |mask| / n
    return [Fraction(bin(m).count("1"), n) for m in range(1 << n)]


class _NoLookups(dict):
    """A decoded table that fails any lookup of one of its keys."""

    def __getitem__(self, key):
        raise AssertionError(f"looked up {key!r}")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_keys_in_mask_order_skip_the_lookup_pass(n):
    values = {_key(n, m): str(v) for m, v in enumerate(_table(n))}
    shuffled = list(values.items())
    random.Random(n).shuffle(shuffled)
    looked_up = load_space_file(_document(n, dict(shuffled))).capacities["u"]
    doc = _document(n, values)
    doc["capacities"]["u"]["values"] = _NoLookups(values)
    in_order = load_space_file(doc).capacities["u"]
    assert in_order == looked_up
    assert in_order.exact_form == looked_up.exact_form
    # the same table out of order does reach the lookups
    doc["capacities"]["u"]["values"] = _NoLookups(shuffled)
    with pytest.raises(AssertionError, match="^looked up "):
        load_space_file(doc)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_keys_in_reverse_mask_order_load_the_table_in_order(n):
    values = {_key(n, m): str(v) for m, v in enumerate(_table(n))}
    reverse = dict(reversed(values.items()))
    in_order = load_space_file(_document(n, values)).capacities["u"]
    reversed_ = load_space_file(_document(n, reverse)).capacities["u"]
    assert reversed_ == in_order
    assert reversed_.exact_form == in_order.exact_form


@pytest.mark.parametrize("n", [2, 3])
def test_a_key_holding_a_comma_among_2n_keys_is_named(n, tmp_path, capsys):
    keys = [_key(n, m) for m in range(1 << n)]
    # the first two keys merged into one, beside an empty key: their run
    # reads as the canonical one with a comma too many
    keys[0], keys[1] = keys[0] + "," + keys[1], ""
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_document(n, dict(zip(keys, map(str, _table(n)))))))
    message = f"subset key {keys[0]!r} must be a {n}-character bitstring"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_space_file(str(path))
    assert main(["choquet", str(path), "u", "f"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", [2, 4])
def test_keys_of_wrong_lengths_that_join_to_the_canonical_run_are_refused(n, tmp_path,
                                                                         capsys):
    keys = [_key(n, m) for m in range(1 << n)]
    # move the last character of the second key to the front of the third
    keys[1], keys[2] = keys[1][:-1], keys[1][-1] + keys[2]
    assert "".join(keys) == "".join(_key(n, m) for m in range(1 << n))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_document(n, dict(zip(keys, map(str, _table(n)))))))
    message = f"subset key {keys[1]!r} must be a {n}-character bitstring"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_space_file(str(path))
    assert main(["choquet", str(path), "u", "f"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_table_mixing_numbers_and_strings_equals_the_all_string_table(backend):
    n = 4
    table = _table(n)
    text = {_key(n, m): str(v) for m, v in enumerate(table)}
    # whole values as JSON ints, halves as JSON floats, quarters as strings
    mixed = {k: (int(v) if v.denominator == 1 else
                 float(v) if v.denominator == 2 else str(v))
             for k, v in zip(text, table)}
    assert {type(v) for v in mixed.values()} == {int, float, str}
    strings = load_space_file(_document(n, text), backend=backend).capacities["u"]
    numbers = load_space_file(_document(n, mixed), backend=backend).capacities["u"]
    assert numbers == strings
    assert numbers.exact_form == strings.exact_form


def test_an_in_order_decrease_names_the_sweeps_witness():
    n = 3
    values = {_key(n, m): str(v) for m, v in enumerate(_table(n))}
    values["100"] = "1"  # {p0} above its cover {p0, p1}, at 2/3
    with pytest.raises(core.MonotonicityError) as err:
        load_space_file(_document(n, values))
    space = make_space([f"p{i}" for i in range(n)])
    with pytest.raises(core.MonotonicityError) as oracle:
        core.validate_capacity(space, [Fraction(values[_key(n, m)]) for m in range(1 << n)])
    assert err.value.witness == oracle.value.witness == (1, 3)
    assert str(err.value) == str(oracle.value)


@pytest.mark.parametrize("values", [{"0": "0", 1: "1"}, {"0": "0", 1: "1", "1": "1"}],
                         ids=["2n-keys", "more-keys"])
def test_a_decoded_key_that_is_not_a_string_is_named(values):
    doc = {"points": ["a"], "capacities": {"u": {"values": values}}}
    with pytest.raises(ValueError, match="^subset key 1 must be a 1-character bitstring$"):
        load_space_file(doc)
