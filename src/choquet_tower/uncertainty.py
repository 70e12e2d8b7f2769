"""Uncertainty spaces: a finite space carrying several capacities at once.

The capacity list is itself a finite point set one level up, so evaluation
and Choquet expectation turn acts on the base into acts on the capacities.
The evaluation act is built from the capacities' values.  When every
capacity and the act have exact forms, the expectation act is built as its
form, over the least common multiple of the capacities' denominators times
the act's: for dense tables, each of the act's chain steps times every
capacity's numerator on that step's level set, summed; otherwise each
capacity's ``integral_form``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Callable, Optional, Sequence, Union

from .choquet import choquet_integral, integral_form
from .core import (VALUE_TOL, Act, Capacity, DuplicateLabelError, FiniteSpace,
                   Frozen, Number, Subset, _mask_of, _require_same_space, once)


def _name_index(capacities: Sequence[tuple[str, Capacity]]
                ) -> tuple[dict, Optional[tuple[str, str]]]:
    """Each capacity's name by value, and the first pair of names sharing one."""
    index: dict = {}
    for name, cap in capacities:
        if cap in index:
            return index, (index[cap], name)
        index[cap] = name
    return index, None


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
    """A finite space plus a named, non-empty list of distinct capacities."""

    def __init__(self, base: FiniteSpace, capacities: tuple[tuple[str, Capacity], ...]):
        if not capacities:
            raise ValueError("an uncertainty space needs at least one capacity")
        names = [name for name, _ in capacities]
        if len(set(names)) != len(names):
            raise DuplicateLabelError("capacity names must be unique")
        for name, cap in capacities:
            _require_same_space(cap.space, base)
        index, pair = _name_index(capacities)
        if pair is not None:
            raise DuplicateLabelError(
                f"capacities {pair[0]!r} and {pair[1]!r} have identical tables")
        self.__dict__.update(base=base, capacities=capacities,
                             _capacity_space=FiniteSpace(tuple(names)),
                             _by_name=dict(capacities), _name_of=index)

    @property
    def names(self) -> tuple[str, ...]:
        return self._capacity_space.points

    @property
    def capacity_space(self) -> FiniteSpace:
        """The capacity list viewed as the point set one level up."""
        return self._capacity_space

    def capacity(self, name: str) -> Capacity:
        return self._by_name[name]

    def name_of(self, cap: Capacity) -> Optional[str]:
        """The name of the capacity equal to `cap` as a set function, if any."""
        return self._name_of.get(cap)

    @once
    def is_additive(self) -> bool:
        """True when every capacity is additive; decided on first use only."""
        return all(cap.is_additive for _, cap in self.capacities)

    @once
    def form_scales(self) -> Optional[tuple[int, list[int]]]:
        """The lcm of the capacities' denominators and the factor that brings
        each one's numerators over it; None when one has no exact form."""
        dens = [cap._den for _, cap in self.capacities]
        if not all(dens):
            return None
        den = math.lcm(*dens)
        return den, [den // d for d in dens]

    @once
    def mass_rows(self) -> Optional[tuple[list[list[int]], int]]:
        """Every capacity's singleton values as numerators over the
        ``form_scales`` denominator, one row per capacity, or None."""
        if self.form_scales is None:
            return None
        den, scales = self.form_scales
        return [[n * k for n in cap._singleton_keys()]
                for (_, cap), k in zip(self.capacities, scales)], den

    @once
    def tables(self) -> Optional[list[list[int]]]:
        """Every capacity's stored table of numerators, in capacity order;
        None unless every capacity is a dense table with an exact form."""
        tables = [cap._table for _, cap in self.capacities]
        if self.form_scales is None or None in tables:
            return None
        return tables


def epsilon(us: UncertaintySpace, subset: Union[Subset, int]) -> Act:
    """Evaluation act of a subset: each capacity reports its value on it."""
    mask = _mask_of(us.base, subset)
    return Act(us.capacity_space, tuple(cap.value(mask) for _, cap in us.capacities))


def xi(us: UncertaintySpace, f: Act) -> Act:
    """Choquet expectation act: each capacity reports its integral of f.

    With exact forms the act is built as one form over the ``form_scales``
    denominator times the act's.  When every capacity is a dense table, all
    integrals are taken at once: each step of the act's exact chain times
    every table's numerator on its level set, gathered from ``tables``,
    summed over the chain, then each capacity's sum times its scale.
    Otherwise each capacity's numerator is ``integral_form``'s.
    """
    _require_same_space(f.space, us.base)
    if us.form_scales is None or f.exact_form is None:
        return Act(us.capacity_space,
                   tuple(choquet_integral(cap, f) for _, cap in us.capacities))
    den, scales = us.form_scales
    if us.tables is None:
        nums = (integral_form(cap, f)[0] for _, cap in us.capacities)
    else:
        # one lazy sum over the chain, so only the scaled numerators are kept
        cums, steps, _ = f.exact_chain
        nums = repeat(0)
        for cum, step in zip(cums, steps):
            nums = map(add, nums, map(mul, map(itemgetter(cum), us.tables), repeat(step)))
    return Act(us.capacity_space, form=(list(map(mul, nums, scales)),
                                        f.exact_form[1] * den))


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
