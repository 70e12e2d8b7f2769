"""Choquet integration and comonotonicity on finite spaces.

On a finite space every act is a finite step function, so the integral is
the exact telescoping sum over the act's descending level sets.  The
improper-integral definition is kept out of the library and used only as a
brute-force oracle in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, pairwise
from operator import add, mul
from typing import Callable

from .core import (Act, Capacity, FiniteSpace, Frozen, Number, Value, _require_same_space,
                   point_flags)


class NotComonotonicError(ValueError):
    """Two acts move in opposite directions on some pair of points."""


class ChainDecomposition(Value, Frozen):
    """Disjoint blocks of constant value covering the space, values descending.

    ``blocks`` pairs a bitmask with the act's value on it; ``decompose``
    produces strictly decreasing values, while a shared chain for a
    comonotonic pair may carry ties.  Chains compare and hash by space and
    blocks.
    """

    _value = ("space", "blocks")

    def __init__(self, space: FiniteSpace, blocks: tuple[tuple[int, Number], ...]):
        union = 0
        prev = None
        for mask, value in blocks:
            if mask == 0 or union & mask:
                raise ValueError("blocks must be non-empty and disjoint")
            union |= mask
            if prev is not None and value > prev:
                raise ValueError("block values must be non-increasing")
            prev = value
        if union != space.full_mask:
            raise ValueError("blocks must cover the space")
        self.__dict__.update(space=space, blocks=blocks)

    @property
    def values(self) -> tuple[Number, ...]:
        return tuple(v for _, v in self.blocks)

    def reconstruct(self) -> Act:
        return chain_act(self.space, self.blocks)


def decompose(f: Act) -> ChainDecomposition:
    """Group points by value and sort descending; equal values share a block."""
    return ChainDecomposition(f.space, f.chain_blocks)


def upper_level_distribution(u: Capacity, f: Act, r: Number) -> Number:
    """u of the upper level set {f >= r}, shifted down by 1 for negative r."""
    _require_same_space(u.space, f.space)
    mask = 0
    for i, v in enumerate(f.values):
        if v >= r:
            mask |= 1 << i
    return u.value(mask) if r >= 0 else u.value(mask) - 1


def choquet_sum(value_of: Callable[[int], Number], f: Act) -> Number:
    """Telescoping Choquet sum against any set function given mask-wise.

    Works for arbitrary monotone set functions (not only normalized
    capacities); the trailing zero sentinel makes negative act values come
    out right because the blocks cover the whole space.  This is the
    definition ``choquet_integral`` must agree with; the law suites use it
    as their oracle.
    """
    total = cum = 0
    blocks = f.chain_blocks
    for idx, (mask, value) in enumerate(blocks):
        cum |= mask
        nxt = blocks[idx + 1][1] if idx + 1 < len(blocks) else 0
        step = value - nxt
        if step != 0:
            total += step * value_of(cum)
    return total


def choquet_integral(u: Capacity, f: Act) -> Number:
    """The Choquet integral of an act against a capacity.

    Reduces to the u-weighted sum of values when u is additive, and to
    u(A) on the indicator act of A.  One dispatch on u's stored form, and
    on whether u and f both have exact forms.  A mass vector, whose
    telescoping sum is the mass-weighted sum of the act's values, takes one
    dot product with the act's numerators; without exact forms (floats, or
    too coprime denominators) each block of the act's chain, read by
    ``point_flags``, adds its masses to a running cumulative mass, so
    additive capacities of any size integrate in linear time.  A dense table
    is looked up at each cumulative level set of the act's exact chain;
    without exact forms it goes to ``choquet_sum`` through ``u.value``.  An
    exact integral is one Fraction of integer sums over the product of the
    two denominators.  ``xi`` integrates a space's whole batch of dense
    tables at once.
    """
    _require_same_space(u.space, f.space)
    form = u.exact_form
    act = f.exact_form if form is not None else None
    if u._masses is not None:
        if act is not None:
            return Fraction(sum(map(mul, act[0], form[0])), act[1] * form[1])
        total = level = 0
        for (mask, value), (_, nxt) in pairwise((*f.chain_blocks, (0, 0))):
            level = reduce(add, compress(u._masses, point_flags(mask)), level)
            if value != nxt:
                total += (value - nxt) * (Fraction(level, u._den) if u._den else level)
        return total
    if act is None:
        return choquet_sum(u.value, f)
    cums, steps, act_den = f.exact_chain
    return Fraction(sum(map(mul, steps, map(form[0].__getitem__, cums))), act_den * form[1])


def are_comonotonic(f: Act, g: Act) -> bool:
    """True iff no pair of points has (f(x)-f(y))(g(x)-g(y)) < 0."""
    _require_same_space(f.space, g.space)
    n = len(f.values)
    for x in range(n):
        for y in range(x + 1, n):
            if (f.values[x] - f.values[y]) * (g.values[x] - g.values[y]) < 0:
                return False
    return True


def common_chain(f: Act, g: Act) -> tuple[ChainDecomposition, ChainDecomposition]:
    """One block list carrying both acts, values descending in lockstep.

    Exists exactly when f and g are comonotonic.
    """
    _require_same_space(f.space, g.space)
    if not are_comonotonic(f, g):
        raise NotComonotonicError("acts are not comonotonic")
    by_pair: dict = {}
    for i, pair in enumerate(zip(f.values, g.values)):
        by_pair.setdefault(pair, 0)
        by_pair[pair] |= 1 << i
    order = sorted(by_pair, reverse=True)
    f_blocks = tuple((by_pair[p], p[0]) for p in order)
    g_blocks = tuple((by_pair[p], p[1]) for p in order)
    return ChainDecomposition(f.space, f_blocks), ChainDecomposition(g.space, g_blocks)


def chain_act(space, blocks: tuple[tuple[int, Number], ...]) -> Act:
    """Assemble an act from (mask, value) blocks; missing points get 0."""
    out = [0] * len(space)
    for mask, value in blocks:
        for i in compress(range(len(space)), point_flags(mask)):
            out[i] = value
    return Act(space, tuple(out))
