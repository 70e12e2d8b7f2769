"""JSON space files: points, named capacities, and named acts.

Capacity values come either as a full table keyed by subset bitstrings
(leftmost character = first point) or as singleton values completed by
additivity.  Numbers are decimal strings, "p/q" rational strings or JSON
numbers (not booleans) and are parsed exactly by ``core.parse_number``, as
numeric flags are; a string is parsed once per file.

A full table is loaded in whole-table passes.  Its keys are matched
against the canonical bitstrings in mask order, a run of keys at a time
when the file lists them in that order and one lookup a key otherwise, and
keys and coverage are checked before any value is parsed.  Each distinct
value is then parsed once, and the exact form of the distinct values is
derived once; the table is built as its numerators over that denominator,
already reduced, or, with no form, keeps its values; either goes through
the normalization and monotonicity checks of ``core._checked_table``.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Union

from . import core
from .core import (Act, Capacity, FiniteSpace, Frozen, Number, SpaceMismatchError,
                   additive_capacity, check_dense_size, make_space, parse_number)

#: the largest space file read from a path, in bytes, checked by its size
#: before it is read and by the read, which stops one byte past it: a file of
#: one 20-point full table (34 MB) loads in 1.3 s at a 256 MB peak, and each
#: further table adds about 1.25 s and 140 MB
MAX_SPACE_FILE_BYTES = 50_000_000


class SpaceFile(Frozen):
    def __init__(self, space: FiniteSpace, capacities: dict[str, Capacity],
                 acts: dict[str, Act]):
        self.__dict__.update(space=space, capacities=capacities, acts=acts)


def _number_parser(backend: str) -> Callable[[object], Number]:
    """Parse JSON values in the backend, each distinct string once.

    Tables repeat a few values many times; parsed numbers are immutable,
    so every entry with the same string shares one.
    """
    parsed: dict[str, Number] = {}

    def number(raw) -> Number:
        if not isinstance(raw, str):
            return parse_number(raw, backend)
        value = parsed.get(raw)
        if value is None:
            value = parsed[raw] = parse_number(raw, backend)
        return value

    return number


def _mask_from_bitstring(n: int, key: object) -> int:
    # n is the number of points; the leftmost character is the first point
    if not isinstance(key, str) or len(key) != n or key.strip("01"):
        raise ValueError(f"subset key {core._echo(repr(key))} must be a {n}-character "
                         "bitstring")
    return int(key[::-1], 2)


def _canonical_runs(n: int) -> Iterator[str]:
    """The 2**n canonical bitstrings in mask order, leftmost character = bit
    0, as runs of 2**(n//2) keys, each followed by a comma.

    Within a run the low columns cycle and the high ones are constant, so
    one template serves every run: its low columns are written once by
    strided slices, its high ones once per run.
    """
    low = n // 2
    size, width = 1 << low, n + 1
    run = bytearray(b"," * (size * width))
    for c in range(low):
        run[c::width] = (b"0" * (1 << c) + b"1" * (1 << c)) * (size >> c + 1)
    ones, zeros = b"1" * size, b"0" * size
    for high in range(1 << n - low):
        for c in range(low, n):
            run[c::width] = ones if high >> c - low & 1 else zeros
        yield run.decode()


def _table_entries(raw: dict, n: int) -> list:
    """The values of a full table in mask order, its keys checked.

    Both passes read the canonical keys from ``_canonical_runs``, a run at
    a time, so no list of all 2**n keys is held.  An object of 2**n keys is
    first compared with the runs: its keys, a run's worth at a time, joined
    each followed by a comma.  A run holds as many commas as keys, so a
    match leaves no key another length, and the object's values, in mask
    order as ``json.dumps`` writes a table built in that order, are given
    as they stand.  Otherwise each canonical key of each run is looked up.
    When every lookup hits, the object's keys are exactly the canonical
    ones.  Otherwise the first bad key in file order is named, and with
    none the table misses a subset.
    """
    if len(raw) == 1 << n:
        keys = iter(raw)
        try:
            if all(",".join(islice(keys, 1 << n // 2)) + "," == run
                   for run in _canonical_runs(n)):
                return list(raw.values())
        except TypeError:
            pass  # a key of a decoded dict that is not a string
        entries: list = []
        try:
            for run in _canonical_runs(n):
                entries += map(raw.__getitem__, run[:-1].split(","))
            return entries
        except KeyError:
            pass
    for key in raw:
        _mask_from_bitstring(n, key)
    raise SpaceMismatchError("table does not cover every subset")


def _full_capacity(space: FiniteSpace, raw: dict,
                   number: Callable[[object], Number]) -> Capacity:
    """Check and build a capacity from a full table, a pass at a time."""
    entries = _table_entries(raw, len(space))
    values = raw.values()
    types = set(map(type, values))
    if not types <= {str, int, float}:
        # anything else (a bool, null, a list) is refused in file order with
        # the message ``parse_number`` gives it, not the one for its text
        for v in values:
            number(v)
    texts, keys = values, entries
    if types != {str}:
        # a value is keyed by its text, which is what ``parse_number`` reads:
        # the float 1e23 and its int compare equal, yet read apart
        texts, keys = map(str, values), map(str, entries)
    parsed = {text: number(text) for text in dict.fromkeys(texts)}
    form = core._exact_form(list(parsed.values()))
    if form is None:
        # the distinct values share no form, so neither does the table
        return core._checked_table(space, list(map(parsed.__getitem__, keys)),
                                   derive=False)
    # numerators over the lcm of the reduced denominators share no factor
    # with it, so this is the form the table's own values would derive:
    # ints, one per subset, reduced, which no door need check again
    numerator = dict(zip(parsed, form[0]))
    return core._checked_table(space, list(map(numerator.__getitem__, keys)), form[1])


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _read_capped(path: Path) -> str:
    """The file's text, as ``Path.read_text`` decodes it, refused by its
    stated size and then by the read, which stops one byte past the bound,
    as a device or a pipe states a size of 0."""
    capped = f"space files are capped at {MAX_SPACE_FILE_BYTES} bytes"
    size = path.stat().st_size
    if size > MAX_SPACE_FILE_BYTES:
        raise ValueError(f"{capped}, got {size}")
    with path.open("rb") as stream:
        data = stream.read(MAX_SPACE_FILE_BYTES + 1)
    if len(data) > MAX_SPACE_FILE_BYTES:
        raise ValueError(f"{capped}, got more from a file that states {size}")
    return io.TextIOWrapper(io.BytesIO(data), encoding="locale").read()


def load_space_file(source: Union[str, Path, dict],
                    backend: str = "rational") -> SpaceFile:
    """Parse a space file from an already-decoded dict, or read it from a
    path (a ``str`` or ``Path``), never from JSON text.

    A file larger than ``MAX_SPACE_FILE_BYTES`` is refused before it is
    read.  JSON nested too deeply for the decoder is a ValueError, as any
    other malformed file.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = _read_capped(Path(source))
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("a space file nests too deeply") from None

    _object(doc, "a space file")
    points = doc.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("'points' must be a list of strings")
    space = make_space(points)
    number = _number_parser(backend)
    capacities = {}
    for name, spec in _object(doc.get("capacities", {}), "'capacities'").items():
        what = f"capacity {core._echo(repr(name))}"
        mode = _object(spec, what).get("mode", "full")
        if mode not in ("full", "singletons-additive"):
            raise ValueError(f"unknown capacity mode {core._echo(repr(mode))}")
        if mode == "full":
            # refuse before parsing up to 2**n values
            check_dense_size(space)
        raw = _object(spec.get("values"), f"the values of {what}")
        if mode == "singletons-additive":
            values = {k: number(v) for k, v in raw.items()}
            capacities[name] = additive_capacity(space, values)
        else:
            capacities[name] = _full_capacity(space, raw, number)
    acts = {}
    for name, vals in _object(doc.get("acts", {}), "'acts'").items():
        if not isinstance(vals, list):
            raise ValueError(f"act {core._echo(repr(name))} must be a list of values")
        acts[name] = Act(space, tuple(number(v) for v in vals))
    return SpaceFile(space=space, capacities=capacities, acts=acts)
