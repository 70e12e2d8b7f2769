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

from .core import (Act, Capacity, FiniteSpace, Number, as_exact, make_space,
                   validate_capacity)


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
    mask = 0
    for i, ch in enumerate(key):
        if ch == "1":
            mask |= 1 << i
    return mask


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

    space = make_space(doc["points"])
    capacities = {}
    for name, spec in doc.get("capacities", {}).items():
        mode = spec.get("mode", "full")
        values = {k: _convert(as_exact(v), backend)
                  for k, v in spec["values"].items()}
        if mode == "singletons-additive":
            capacities[name] = validate_capacity(space, values,
                                                 singletons_additive=True)
        elif mode == "full":
            table = {_mask_from_bitstring(space, k): v for k, v in values.items()}
            capacities[name] = validate_capacity(space, table)
        else:
            raise ValueError(f"unknown capacity mode {mode!r}")
    acts = {}
    for name, vals in doc.get("acts", {}).items():
        acts[name] = Act(space, tuple(_convert(as_exact(v), backend) for v in vals))
    return SpaceFile(space=space, capacities=capacities, acts=acts)
