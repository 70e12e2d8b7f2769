"""Seeded space files for the spacefile workload, with exact oracles.

Each seed gives a 16-point space, one act ``f`` and two full capacity
tables: ``w``, a squared additive measure (monotone, not additive), and
``a``, an additive measure written out subset by subset.  The expected
Choquet integrals are computed here in ``Fraction``, independently of the
library: the telescoping sum over the table for ``w``, and the
mass-weighted sum for ``a``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

POINTS = 16


@dataclass(frozen=True)
class SpaceCase:
    """One generated space file and the integral its command must print."""

    capacity: str
    text: str
    expected: Fraction


def _subset_sums(weights: list[int]) -> list[int]:
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def telescoping_integral(table: list[Fraction], act: list[Fraction]) -> Fraction:
    """Choquet integral as the sum of (x_k - x_(k+1)) * table(top k points).

    Points are taken in descending order of the act, with x_(n+1) = 0; ties
    contribute a zero step, so their order does not matter.
    """
    order = sorted(range(len(act)), key=lambda i: act[i], reverse=True)
    total, mask = Fraction(0), 0
    for k, i in enumerate(order):
        mask |= 1 << i
        nxt = act[order[k + 1]] if k + 1 < len(order) else 0
        total += (act[i] - nxt) * table[mask]
    return total


def _document(points: list[str], name: str, table: list[Fraction],
              act: list[Fraction]) -> str:
    n = len(points)
    # keys are bitstrings whose leftmost character is the first point
    values = {format(mask, f"0{n}b")[::-1]: str(v) for mask, v in enumerate(table)}
    return json.dumps({"points": points,
                       "capacities": {name: {"mode": "full", "values": values}},
                       "acts": {"f": [str(x) for x in act]}})


def generate(seed: int, points: int = POINTS) -> dict[str, SpaceCase]:
    """The dense (``w``) and additive (``a``) cases for a seed."""
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(points)]
    weights = [rng.randint(1, 9) for _ in range(points)]
    act = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(points)]
    total = sum(weights)
    sums = _subset_sums(weights)
    dense = [Fraction(s * s, total * total) for s in sums]
    additive = [Fraction(s, total) for s in sums]
    masses = [Fraction(w, total) for w in weights]
    return {
        "dense": SpaceCase("w", _document(labels, "w", dense, act),
                           telescoping_integral(dense, act)),
        "additive": SpaceCase("a", _document(labels, "a", additive, act),
                              sum((x * m for x, m in zip(act, masses)), Fraction(0))),
    }
