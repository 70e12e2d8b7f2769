"""Uncertainty spaces: a finite space carrying several capacities at once.

The capacity list is itself a finite point set one level up, so evaluation
and Choquet expectation turn acts on the base into acts on the capacities.
The evaluation act is built from the capacities' values.  A space built
from one batch of integer columns over one denominator keeps it as its
``batch``, checked by ``core.validate_batch``, which alone reads its
``kind`` from the column count: n columns are mass vectors and 2**n dense
tables.  ``xi`` integrates an exact act against a batch of dense tables at
once, ``mu`` in ``category`` reads its columns from a batch of mass
vectors, and a space over mass vectors is additive without building a
capacity.  A space built from capacities has no batch and no kind.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .choquet import choquet_integral
from .core import (VALUE_TOL, Act, Capacity, DuplicateLabelError, EmptySpaceError,
                   FiniteSpace, Frozen, Number, Subset, _mask_of, _require_same_space,
                   batch_capacities, once, validate_batch)


def _name_index(capacities: Iterable[tuple[str, Capacity]]
                ) -> tuple[dict, Optional[tuple[str, str]]]:
    """Each capacity's name by value, and the first pair of names sharing one."""
    index: dict = {}
    for name, cap in capacities:
        if cap in index:
            return index, (index[cap], name)
        index[cap] = name
    return index, None


def _duplicate(pair: tuple[str, str]) -> DuplicateLabelError:
    return DuplicateLabelError(f"capacities {pair[0]!r} and {pair[1]!r} have identical tables")


def _name_space(names: Sequence[str]) -> FiniteSpace:
    # the capacity names as the point set one level up, whose own check
    # refuses no names or a repeated one
    try:
        return FiniteSpace(tuple(names))
    except EmptySpaceError:
        raise ValueError("an uncertainty space needs at least one capacity") from None
    except DuplicateLabelError:
        raise DuplicateLabelError("capacity names must be unique") from None


def check_separated(capacities: Union["UncertaintySpace",
                                      Sequence[tuple[str, Capacity]]]
                    ) -> tuple[bool, Optional[tuple[str, str]]]:
    """Whether all capacities are pairwise distinct as set functions.

    Returns the first duplicate pair of names otherwise.  Distinct lists are
    exactly the ones whose evaluation acts separate points, so the powerset
    over the list is a faithful sigma-algebra.
    """
    if isinstance(capacities, UncertaintySpace):
        capacities = capacities.capacities
    pair = _name_index(capacities)[1]
    return pair is None, pair


class UncertaintySpace(Frozen):
    """A finite space plus a named, non-empty list of distinct capacities,
    whose names are ``capacity_space``, the point set one level up.

    A space is built from (name, capacity) pairs, and has no ``batch`` and
    no ``kind``, or by ``of_columns`` from one batch of columns and its
    kind, which are all the space keeps: its capacities and the index for
    ``name_of`` are built from the batch on first use, as is the index of a
    space of one capacity from pairs, which has nothing to separate.
    ``capacity`` finds a name at its position in ``capacity_space``.  Every
    check acts before the space is returned.
    """

    def __init__(self, base: FiniteSpace, capacities: tuple[tuple[str, Capacity], ...]):
        names = _name_space([name for name, _ in capacities])
        for name, cap in capacities:
            _require_same_space(cap.space, base)
        if len(capacities) > 1:
            index, pair = _name_index(capacities)
            if pair is not None:
                raise _duplicate(pair)
            self.__dict__["_name_of"] = index
        self.__dict__.update(base=base, capacities=capacities, capacity_space=names,
                             kind=None, batch=None)

    @classmethod
    def of_columns(cls, base: FiniteSpace, names: tuple[str, ...],
                   columns: Sequence[Sequence[int]], den: int) -> "UncertaintySpace":
        """The space of one named capacity per row of a batch of columns over
        one denominator, ``columns[j][k]`` being row k's int numerator at
        entry j, checked by ``validate_batch``, which gives its kind.  The
        names are counted against the rows, the longest column's length,
        before any column pass.  Rows over one denominator are equal set
        functions exactly when equal, so a column of pairwise distinct
        entries (for the urn, that of B) separates them; only when none does
        are the rows ``zip(*columns)`` compared, and only a repeat builds the
        capacities, to name the first pair as the constructor does.
        """
        names_space = _name_space(names)
        count, rows = len(names), max(map(len, columns), default=0)
        if rows != count:
            raise ValueError(f"{count} capacity names for {rows} rows")
        kind, columns, den = validate_batch(base, columns, den)
        if not any(len(set(column)) == count for column in columns):
            if len(set(zip(*columns))) != count:
                caps = batch_capacities(base, kind, columns, den)
                raise _duplicate(_name_index(zip(names, caps))[1])
        us = cls.__new__(cls)
        us.__dict__.update(base=base, capacity_space=names_space, kind=kind, batch=(columns, den))
        return us

    @property
    def names(self) -> tuple[str, ...]:
        return self.capacity_space.points

    @once
    def capacities(self) -> tuple[tuple[str, Capacity], ...]:
        """Built from the batch on first use in a space built by ``of_columns``."""
        return tuple(zip(self.names, batch_capacities(self.base, self.kind, *self.batch)))

    @once
    def _name_of(self) -> dict:
        return _name_index(self.capacities)[0]

    def capacity(self, name: str) -> Capacity:
        return self.capacities[self.capacity_space._index[name]][1]

    def name_of(self, cap: Capacity) -> Optional[str]:
        """The name of the capacity equal to `cap` as a set function, if any."""
        return self._name_of.get(cap)

    @once
    def is_additive(self) -> bool:
        """True when every capacity is additive, as each of a batch of mass
        vectors is; otherwise decided from the capacities on first use only."""
        return self.kind == "masses" or all(cap.is_additive for _, cap in self.capacities)


def epsilon(us: UncertaintySpace, subset: Union[Subset, int]) -> Act:
    """Evaluation act of a subset: each capacity reports its value on it."""
    mask = _mask_of(us.base, subset)
    return Act(us.capacity_space, tuple(cap.value(mask) for _, cap in us.capacities))


def xi(us: UncertaintySpace, f: Act) -> Act:
    """Choquet expectation act: each capacity reports its integral of f.

    An exact act on a space whose ``batch`` holds dense tables is
    integrated against every table at once: each step of the act's exact
    chain times the batch's column of that step's level set,
    ``columns[cum]``, summed over the chain, starting from the first step's
    column.  The steps and the denominator, the batch's times the act's,
    are first divided by their gcd g, so a step that becomes 1 takes its
    column as it stands (each of the urn's bets has one such step), and the
    act's door divides the numerators only by a factor g left, as that of
    a constant column.  An act whose form is one list column as it stands
    keeps the batch's list.  The zero act, whose chain is empty, integrates
    to zeros over 1.  Otherwise (no batch, a batch of mass vectors, an act
    holding a float) each value is ``choquet_integral``.
    """
    _require_same_space(f.space, us.base)
    if us.kind != "table" or f.exact_form is None:
        return Act(us.capacity_space,
                   tuple(choquet_integral(cap, f) for _, cap in us.capacities))
    columns, den = us.batch
    cums, steps, act_den = f.exact_chain
    if not steps:
        return Act(us.capacity_space, form=([0] * len(us.names), 1))
    g = math.gcd(act_den * den, *steps)
    # one lazy sum over the chain, so only the numerators are kept
    nums = None
    for cum, step in zip(cums, steps):
        column = columns[cum]
        if step != g:
            column = map(mul, column, repeat(step // g))
        nums = column if nums is None else map(add, nums, column)
    return Act(us.capacity_space,
               form=(nums if type(nums) is list else list(nums), act_den * den // g))


class GTransform(Frozen):
    """A strictly increasing continuous change of numeraire with its inverse."""

    def __init__(self, forward: Callable[[Number], Number],
                 inverse: Callable[[Number], Number], kind: str = "custom",
                 param: Optional[Number] = None):
        for t in (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0):
            back = inverse(forward(t))
            if abs(back - t) > VALUE_TOL:
                raise ValueError(f"inverse(forward({t})) = {back}, not an inverse pair")
        self.__dict__.update(forward=forward, inverse=inverse, kind=kind, param=param)

    @classmethod
    def linear(cls, c: Number = 1) -> "GTransform":
        if c <= 0:
            raise ValueError("linear transform needs a positive slope")
        return cls(lambda t: c * t, lambda s: s / c, kind="linear", param=c)

    @classmethod
    def entropic(cls, lam: float = 1.0) -> "GTransform":
        if lam <= 0:
            raise ValueError("entropic transform needs lambda > 0")
        return cls(lambda t: math.exp(lam * t),
                   lambda s: math.log(s) / lam,
                   kind="entropic", param=lam)


def xi_g(us: UncertaintySpace, f: Act, g: GTransform) -> Act:
    """Transformed expectation: inverse of g applied to xi of (g of f).

    A linear g changes nothing, so that case short-circuits to ``xi`` and
    stays exact in the rational backend.  The entropic case is the
    log-of-exponential-moment value measure and always computes in floats.
    """
    _require_same_space(f.space, us.base)
    if g.kind == "linear":
        return xi(us, f)
    if g.kind == "entropic" and g.param * float(f.sup_norm) > 700.0:
        raise OverflowError("entropic transform overflows for this act")
    lifted = f.map(lambda v: g.forward(float(v)))
    expect = xi(us, lifted)
    return expect.map(g.inverse)
