"""JSON space files: points, named capacities, and named acts.

Capacity values come either as a full table keyed by subset bitstrings
(leftmost character = first point) or as singleton values completed by
additivity.  Numbers are decimal strings, "p/q" rational strings or JSON
numbers (not booleans) and are parsed exactly, each distinct string once,
by ``core.parse_number``, as numeric flags are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from .core import (Act, Capacity, FiniteSpace, Number, additive_capacity,
                   check_dense_size, make_space, parse_number, validate_capacity)


@dataclass(frozen=True)
class SpaceFile:
    space: FiniteSpace
    capacities: dict[str, Capacity]
    acts: dict[str, Act]


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


def _mask_from_bitstring(n: int, key: str) -> int:
    # n is the number of points; the leftmost character is the first point
    if len(key) != n or key.strip("01"):
        raise ValueError(f"subset key {key!r} must be a {n}-character bitstring")
    return int(key[::-1], 2)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def load_space_file(source: Union[str, Path, dict],
                    backend: str = "rational") -> SpaceFile:
    """Parse a space file from a path, JSON text, or already-decoded dict.

    A string whose first non-blank character is ``{`` is JSON text (a space
    file is always a JSON object); any other string, like a ``Path``, names
    a file to read.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        doc = json.loads(Path(source).read_text())

    _object(doc, "a space file")
    points = doc.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("'points' must be a list of strings")
    space = make_space(points)
    number = _number_parser(backend)
    capacities = {}
    for name, spec in _object(doc.get("capacities", {}), "'capacities'").items():
        mode = _object(spec, f"capacity {name!r}").get("mode", "full")
        if mode not in ("full", "singletons-additive"):
            raise ValueError(f"unknown capacity mode {mode!r}")
        if mode == "full":
            # refuse before parsing up to 2**n values
            check_dense_size(space)
        raw = _object(spec.get("values"), f"the values of capacity {name!r}")
        if mode == "singletons-additive":
            values = {k: number(v) for k, v in raw.items()}
            capacities[name] = additive_capacity(space, values)
        else:
            n = len(space)
            table = {_mask_from_bitstring(n, k): number(v) for k, v in raw.items()}
            capacities[name] = validate_capacity(space, table)
    acts = {}
    for name, vals in _object(doc.get("acts", {}), "'acts'").items():
        if not isinstance(vals, list):
            raise ValueError(f"act {name!r} must be a list of values")
        acts[name] = Act(space, tuple(number(v) for v in vals))
    return SpaceFile(space=space, capacities=capacities, acts=acts)
