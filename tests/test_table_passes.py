"""Full space-file tables, loaded in whole-table passes, against the
per-entry definition: every key checked and every value parsed on its own,
then the table handed to ``validate_capacity``."""

import json
import random
import time
from fractions import Fraction

import pytest

from choquet_tower import core
from choquet_tower.cli import main
from choquet_tower.core import (MAX_DECIMAL_EXPONENT, make_space, parse_number,
                                validate_capacity)
from choquet_tower.spacefile import _mask_from_bitstring, load_space_file

BACKENDS = ("rational", "float")


def _key(n: int, mask: int) -> str:
    return format(mask, f"0{n}b")[::-1]


def _monotone_table(n: int, pool: list[Fraction], rng: random.Random) -> list[Fraction]:
    """A random capacity table: interior values drawn from the pool and laid
    out ascending along popcount order, which extends set inclusion."""
    full = (1 << n) - 1
    order = sorted(range(1, full), key=lambda m: (bin(m).count("1"), m))
    table = [Fraction(0)] * (full + 1)
    for mask, value in zip(order, sorted(rng.choice(pool) for _ in order)):
        table[mask] = value
    table[full] = Fraction(1)
    return table


def _raw(value: Fraction, rng: random.Random):
    """One JSON spelling of an exact value, picked at random among those that
    read back as it: "p/q", a decimal string, a JSON int or a JSON float."""
    forms = [str(value)]
    if value.denominator == 1:
        forms.append(int(value))
    decimal = repr(float(value))
    if Fraction(decimal) == value:
        forms += [decimal, float(value)]
    return rng.choice(forms)


def _document(n: int, values: dict) -> dict:
    """A space file of one full table, as JSON decoding gives it: the value
    types a space file really holds."""
    return json.loads(json.dumps({"points": [f"p{i}" for i in range(n)],
                                  "capacities": {"u": {"mode": "full", "values": values}},
                                  "acts": {"f": ["1"] * n}}))


def _per_entry(n: int, values: dict, backend: str):
    """The definition: each key and each value on its own, in file order."""
    space = make_space([f"p{i}" for i in range(n)])
    table = [None] * (1 << n)
    for k, v in values.items():
        table[_mask_from_bitstring(n, k)] = parse_number(v, backend)
    return validate_capacity(space, table)


def _shuffled_table(n: int, table: list[Fraction], rng: random.Random) -> dict:
    masks = list(range(1 << n))
    rng.shuffle(masks)
    return {_key(n, m): _raw(table[m], rng) for m in masks}


POOL = [Fraction(k, d) for d in (2, 3, 4, 5, 8, 10) for k in range(1, d)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(3))
def test_passes_equal_the_per_entry_definition(n, seed, backend):
    rng = random.Random(1000 * n + seed)
    values = _shuffled_table(n, _monotone_table(n, POOL, rng), rng)
    doc = _document(n, values)
    loaded = load_space_file(doc, backend=backend).capacities["u"]
    expected = _per_entry(n, doc["capacities"]["u"]["values"], backend)
    assert loaded == expected
    assert loaded.exact_form == expected.exact_form
    assert (loaded.exact_form is None) == (backend == "float")


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_half_in_every_spelling_is_one_value(backend):
    values = {"00": 0, "10": "1/2", "01": "0.5", "11": 1.0}
    loaded = load_space_file(_document(2, values), backend=backend).capacities["u"]
    assert loaded == _per_entry(2, values, backend)
    assert loaded.value(1) == loaded.value(2) == Fraction(1, 2)
    if backend == "rational":
        assert loaded.exact_form == ([0, 1, 1, 2], 2)


def test_json_int_and_float_that_compare_equal_parse_apart():
    # 1e23 reads as 10**23 exactly; the int is the float's binary value
    big = int(1e23)
    assert big == 1e23 and Fraction(repr(1e23)) != big
    # the float comes first in file order; the int's subset is the witness
    values = {"000": 0, "010": 1e23, "100": big, "001": "1/2",
              "110": 1, "101": 1, "011": 1, "111": 1}
    with pytest.raises(core.MonotonicityError) as loaded:
        load_space_file(_document(3, values))
    with pytest.raises(core.MonotonicityError) as expected:
        _per_entry(3, values, "rational")
    assert str(loaded.value) == str(expected.value)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [5, 6])
def test_too_coprime_table_equals_the_definition(n, backend):
    rng = random.Random(n)
    primes = [p for p in range(101, 400) if all(p % q for q in range(2, 20))]
    pool = [Fraction(rng.randint(1, p - 1), p) for p in primes]
    table = _monotone_table(n, pool, rng)
    assert core._exact_form(table) is None
    values = _shuffled_table(n, table, rng)
    loaded = load_space_file(_document(n, values), backend=backend).capacities["u"]
    expected = _per_entry(n, values, backend)
    assert loaded == expected
    assert loaded.exact_form is None is expected.exact_form


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def _exits_one(values, message, tmp_path, capsys, backend="rational"):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_document(3, values)) if isinstance(values, dict)
                    else values)
    with pytest.raises(ValueError) as exc:
        load_space_file(str(path), backend=backend)
    assert str(exc.value) == message
    assert main(["choquet", str(path), "u", "f", "--backend", backend]) == 1
    assert _one_error_line(capsys) == f"error: {message}"


VALID = {_key(3, m): str(Fraction(bin(m).count("1"), 3)) for m in range(8)}


def _replace_keys(renames: dict) -> dict:
    return {renames.get(k, k): v for k, v in VALID.items()}


@pytest.mark.parametrize("bad", ["0b1", "0_1", " 01", "01", "0101"])
def test_first_bad_key_in_file_order_is_named(bad, tmp_path, capsys):
    # "0b1", "0_1" and " 01" are all read by int(key, 2) or after strip()
    keys = list(VALID)
    values = _replace_keys({keys[2]: bad, keys[5]: "1x1"})
    _exits_one(values, f"subset key {bad!r} must be a 3-character bitstring",
               tmp_path, capsys)


def test_missing_subset_exits_one(tmp_path, capsys):
    values = dict(VALID)
    del values["110"]
    _exits_one(values, "table does not cover every subset", tmp_path, capsys)


def test_extra_key_is_named(tmp_path, capsys):
    _exits_one(dict(VALID, **{"0000": "1"}),
               "subset key '0000' must be a 3-character bitstring", tmp_path, capsys)


def test_true_after_one_is_not_taken_for_one(tmp_path, capsys):
    values = dict(VALID, **{"100": 1, "010": 1, "001": 1, "110": True})
    _exits_one(values, "expected a number, got True", tmp_path, capsys)


@pytest.mark.parametrize("bad", [None, [1]])
@pytest.mark.parametrize("backend", BACKENDS)
def test_non_numbers_exit_one_as_before(bad, backend, tmp_path, capsys):
    with pytest.raises(ValueError) as exc:
        parse_number(bad, backend)
    _exits_one(dict(VALID, **{"010": bad}), str(exc.value), tmp_path, capsys, backend)


def test_keys_and_coverage_are_checked_before_values(tmp_path, capsys):
    # the one order change: the first bad value comes before the bad key in
    # file order, and the per-entry definition would have named the value
    bad_value = dict(VALID, **{"000": "x"})
    keys = list(bad_value)
    _exits_one({("2" if k == keys[-1] else k): v for k, v in bad_value.items()},
               "subset key '2' must be a 3-character bitstring", tmp_path, capsys)
    missing = {k: v for k, v in bad_value.items() if k != keys[-1]}
    _exits_one(missing, "table does not cover every subset", tmp_path, capsys)


def test_each_distinct_value_is_derived_once(monkeypatch):
    seen = []
    derive = core._exact_form
    monkeypatch.setattr(core, "_exact_form", lambda values: seen.append(len(values))
                        or derive(values))
    load_space_file(_document(3, VALID))
    # four distinct values among eight entries, derived in one call
    assert seen == [4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_too_coprime_table_derives_its_form_once(backend, monkeypatch):
    rng = random.Random(6)
    primes = [p for p in range(101, 400) if all(p % q for q in range(2, 20))]
    pool = [Fraction(rng.randint(1, p - 1), p) for p in primes]
    values = _shuffled_table(6, _monotone_table(6, pool, rng), rng)
    expected = _per_entry(6, values, backend)
    seen = []
    derive = core._exact_form
    monkeypatch.setattr(core, "_exact_form", lambda values: seen.append(len(values))
                        or derive(values))
    loaded = load_space_file(_document(6, values), backend=backend).capacities["u"]
    # the distinct values alone, where the whole table was derived again
    assert seen == [len(set(map(str, values.values())))] and seen[0] < 64
    assert loaded == expected and loaded.exact_form is None


# -- guards that act before the work they guard ----------------------------------

BIG_EXPONENT = "1e-999999999"


def test_decimal_exponent_is_refused_before_parsing(capsys):
    start = time.perf_counter()
    assert main(["ellsberg", "--variant", "X", "--big-n", "1", "--alpha", "1",
                 "--u1", BIG_EXPONENT, "--layer", "2"]) == 1
    assert time.perf_counter() - start < 1.0
    assert _one_error_line(capsys) == (f"error: {BIG_EXPONENT} has a decimal exponent "
                                       f"above {MAX_DECIMAL_EXPONENT} in magnitude")


def test_space_file_value_with_a_large_exponent_exits_one(tmp_path, capsys):
    start = time.perf_counter()
    _exits_one(dict(VALID, **{"100": BIG_EXPONENT}),
               f"{BIG_EXPONENT} has a decimal exponent above {MAX_DECIMAL_EXPONENT} "
               f"in magnitude", tmp_path, capsys)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text,refused", [
    ("1e4300", False), ("1E-4300", False), ("1e-0_4300", False), ("1e300", False),
    ("1e4301", True), ("1e-4301", True), ("1E+0_4301", True), (" 2.5e-5000 ", True),
])
def test_decimal_exponent_limit(text, refused):
    if refused:
        with pytest.raises(ValueError, match="has a decimal exponent above 4300"):
            core.as_exact(text)
    else:
        assert core.as_exact(text) == Fraction(text)


def test_exponent_too_long_to_read_is_refused_before_parsing():
    # an exponent of more digits than int() reads from text is refused by it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Exceeds the limit"):
        core.as_exact("1e-" + "9" * 5000)
    assert time.perf_counter() - start < 1.0


def test_float_backend_refuses_a_tiny_exponent_it_read_as_zero():
    with pytest.raises(ValueError, match="decimal exponent above"):
        parse_number("1e-5000", "float")
    assert parse_number("1e300", "float") == 1e300
    with pytest.raises(ValueError, match="1e400 is too large for a float"):
        parse_number("1e400", "float")


@pytest.mark.parametrize("where", ["top", "acts"])
def test_deep_nesting_exits_one(where, tmp_path, capsys):
    # the file is written as text: json.dumps cannot encode such a nesting
    deep = "[" * 200_000 + "]" * 200_000
    text = deep if where == "top" else '{"points": ["a"], "acts": {"f": %s}}' % deep
    _exits_one(text, "a space file nests too deeply", tmp_path, capsys)


# -- the monotone sweep's plan ---------------------------------------------------

@pytest.mark.parametrize("n", range(0, 9))
def test_cover_slices_pair_every_cover_once(n):
    plan = core._cover_slices(n)
    assert core._cover_slices(n) is plan
    masks = range(1 << n)
    pairs = [(lo_mask, i) for i, lo, hi in plan
             for lo_mask, hi_mask in zip(masks[lo], masks[hi])
             if hi_mask == lo_mask | 1 << i]
    covers = [(m, i) for m in masks for i in range(n) if not m >> i & 1]
    assert sorted(pairs) == covers
    assert sum(len(masks[lo]) for _, lo, _ in plan) == len(covers)
