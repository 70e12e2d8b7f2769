"""JSON space files: points, named capacities, and named acts.

Capacity values come either as a full table keyed by subset bitstrings
(leftmost character = first point) or as singleton values completed by
additivity.  Numbers are decimal strings or "p/q" rational strings and are
parsed exactly; the float backend converts after parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import (Act, Capacity, FiniteSpace, Number, additive_capacity,
                   as_exact, check_dense_size, make_space, validate_capacity)


@dataclass(frozen=True)
class SpaceFile:
    space: FiniteSpace
    capacities: dict[str, Capacity]
    acts: dict[str, Act]


def _convert(x: Fraction, backend: str) -> Number:
    return float(x) if backend == "float" else x


def _mask_from_bitstring(space: FiniteSpace, key: str) -> int:
    if len(key) != len(space) or any(ch not in "01" for ch in key):
        raise ValueError(f"subset key {key!r} must be a {len(space)}-character bitstring")
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
    capacities = {}
    for name, spec in _object(doc.get("capacities", {}), "'capacities'").items():
        mode = _object(spec, f"capacity {name!r}").get("mode", "full")
        if mode not in ("full", "singletons-additive"):
            raise ValueError(f"unknown capacity mode {mode!r}")
        if mode == "full":
            # refuse before parsing up to 2**n values
            check_dense_size(space)
        raw = _object(spec.get("values"), f"the values of capacity {name!r}")
        values = {k: _convert(as_exact(v), backend) for k, v in raw.items()}
        if mode == "singletons-additive":
            capacities[name] = additive_capacity(space, values)
        else:
            table = {_mask_from_bitstring(space, k): v for k, v in values.items()}
            capacities[name] = validate_capacity(space, table)
    acts = {}
    for name, vals in _object(doc.get("acts", {}), "'acts'").items():
        if not isinstance(vals, list):
            raise ValueError(f"act {name!r} must be a list of values")
        acts[name] = Act(space, tuple(_convert(as_exact(v), backend) for v in vals))
    return SpaceFile(space=space, capacities=capacities, acts=acts)
