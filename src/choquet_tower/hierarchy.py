"""U-sequences: towers of uncertainty spaces and multi-layer value functions.

Each level's points are the previous level's capacities.  A sequence is a
finite prefix that may close with ``TERMINAL``, the one-point terminal space
built once, or with a parameterized capacity family integrated against
Lebesgue measure on [0, 1], whose weight layer is one point, ``"lambda"``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

from .choquet import choquet_integral
from .core import (VALUE_TOL, Act, Capacity, FiniteSpace, Frozen, Number, Subset,
                   _require_same_space, additive_capacity, point_flags)
from .uncertainty import UncertaintySpace, xi


class LayerError(ValueError):
    """A value-function layer that is out of range or not materializable."""


class QuadratureError(ArithmeticError):
    """Gauss-Legendre refinement failed to stabilize."""


_STAR = FiniteSpace(("*",))
#: the absorbing tail of a sequence: its point "*" carries its unit mass, and
#: a sequence compares a level with it by identity
TERMINAL = UncertaintySpace(_STAR, (("*", additive_capacity(_STAR, form=([1], 1))),))


class UtilityFunction(Frozen):
    """Nondecreasing payoff scale with utility 0 at 0 and strictly inside (0,1) at 1."""

    def __init__(self, fn: Callable[[Number], Number], u1: Number = None):
        if u1 is None:
            u1 = fn(1)
        zero = fn(0)
        if not (0 < u1 < 1) or zero != 0:
            raise ValueError(f"need 1 > fn(1) > fn(0) = 0, got fn(1)={u1}, fn(0)={zero}")
        self.__dict__.update(fn=fn, u1=u1)

    def __call__(self, x: Number) -> Number:
        return self.fn(x)

    @classmethod
    def exp_saturating(cls) -> "UtilityFunction":
        """1 - exp(-x); float backend."""
        return cls(lambda x: 1.0 - math.exp(-float(x)))

    @classmethod
    def anchored(cls, u1: Number) -> "UtilityFunction":
        """Linear scale through (1, u1); exact when u1 is rational."""
        if not 0 < u1 < 1:
            raise ValueError("anchor must lie strictly between 0 and 1")
        return cls(lambda x: u1 * x, u1=u1)


class FamilyLevel(Frozen):
    """A [0,1]-parameterized family of additive capacities, p weighed by
    Lebesgue measure.

    Closes a sequence: the family occupies one level and the measure on p
    the next, so a value function jumps two layers when it crosses this
    entry.  ``binomial_n`` tags families whose member masses are binomial
    coefficients in p (degree-n polynomials), unlocking the exact
    moment-identity path in ``integrate_family``.  Members are checked as
    they are built by ``member``, so a family that is never evaluated is
    never materialized.
    """

    def __init__(self, base: FiniteSpace, family: Callable[[Number], Capacity],
                 binomial_n: Optional[int] = None):
        self.__dict__.update(base=base, family=family, binomial_n=binomial_n)

    def member(self, p: Number) -> Capacity:
        """The family's capacity at p, checked to be additive on the base."""
        cap = self.family(p)
        _require_same_space(cap.space, self.base)
        if not cap.is_additive:
            raise ValueError(f"family member at p={p} is not additive")
        return cap

    #: the one point of the Lebesgue weight layer above the family
    weight_space = FiniteSpace(("lambda",))


Level = Union[UncertaintySpace, FamilyLevel]


def _gauss_legendre_01(n: int) -> tuple[list[float], list[float]]:
    # Newton on the Legendre recurrence from cos(pi (i + 3/4) / (n + 1/2)), one
    # root pair +-x of P_n at a time, in at most 10 steps (5 suffice up to
    # n = 2002): on [0, 1] the nodes (1 -+ x) / 2 weigh 1 / ((1 - x^2) P_n'(x)^2)
    xs, ws = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(10):
            p, q = 1.0, 0.0  # P_k(x) and P_(k-1)(x)
            for k in range(1, n + 1):
                p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
            dp = n * (x * p - q) / (x * x - 1)
            x -= p / dp
            if abs(p / dp) < 1e-15:
                break
        xs[i], xs[n - 1 - i] = (1 - x) / 2, (1 + x) / 2
        ws[i] = ws[n - 1 - i] = 1 / ((1 - x * x) * dp * dp)
    return xs, ws


def integrate_family(level: FamilyLevel,
                     phi: Optional[Callable[[Number], Number]] = None,
                     *,
                     act: Optional[Act] = None) -> Number:
    """Integrate a functional of the family over p in [0, 1] under
    Lebesgue measure.

    Exactly one of ``phi`` (p maps to a number) and ``act`` may be given.
    With ``act`` the integrand is the Choquet integral of the act under the
    p-th member; for a binomial family that integrand is linear in the
    member masses, each of which integrates to 1/(binomial_n + 1), so the
    result is the exact mean of the act's values, summed on its integer
    numerators when it has an exact form.
    The generic path uses Gauss-Legendre with enough nodes to be exact on
    polynomials of the family's degree, and one refinement doubling as a
    cross-check.
    """
    if (phi is None) == (act is None):
        raise ValueError("give exactly one of phi/act")

    if act is not None:
        _require_same_space(act.space, level.base)
        if level.binomial_n is not None:
            form = act.exact_form
            if form is not None:
                return Fraction(sum(form[0]), form[1] * (level.binomial_n + 1))
            return sum(act.values, start=Fraction(0)) / (level.binomial_n + 1)
        phi = lambda p: choquet_integral(level.member(p), act)

    nodes = max(16 if level.binomial_n is None else level.binomial_n // 2 + 1, 4)
    results = [math.fsum(w * float(phi(x)) for x, w in zip(*_gauss_legendre_01(n)))
               for n in (nodes, 2 * nodes)]
    if abs(results[0] - results[1]) > VALUE_TOL:
        raise QuadratureError(
            f"refinement moved the value by {abs(results[0] - results[1])!r}")
    return results[1]


class USequence(Frozen):
    """Finite prefix of linked uncertainty spaces, possibly closed."""

    def __init__(self, levels: tuple[Level, ...]):
        if not levels or levels[0] is TERMINAL or not isinstance(levels[0], UncertaintySpace):
            raise ValueError("a sequence starts with a concrete uncertainty space")
        for level in levels:
            if not isinstance(level, (UncertaintySpace, FamilyLevel)):
                raise ValueError(f"a sequence entry is an uncertainty space or a family "
                                 f"level, not {type(level).__name__}")
        for cur, nxt in zip(levels, levels[1:]):
            if cur is TERMINAL:
                if nxt is not TERMINAL:
                    raise ValueError("levels after the terminal space stay terminal")
            elif isinstance(cur, FamilyLevel):
                if nxt is not TERMINAL:
                    raise ValueError("a family level closes the sequence")
            elif nxt is TERMINAL:
                if len(cur.names) != 1:
                    raise ValueError("only a single-capacity level can close "
                                     "with the terminal space")
            elif nxt.base.points != cur.names:
                raise ValueError("next level's points must be this level's capacities")
        self.__dict__.update(levels=levels)

    @property
    def layer_count(self) -> int:
        """Highest layer an act can be pushed to."""
        n = 0
        for level in self.levels:
            n += 2 if isinstance(level, FamilyLevel) else 1
        return n

    def base_space(self) -> FiniteSpace:
        return self.levels[0].base


def xi_chain(seq: USequence, f: Act, m: int, n: int) -> Act:
    """Iterated Choquet expectation from layer m up to layer n."""
    if not 0 <= m <= n <= seq.layer_count:
        raise LayerError(f"need 0 <= {m} <= {n} <= {seq.layer_count}")
    act = f
    layer = 0
    for level in seq.levels:
        if layer >= n:
            break
        width = 2 if isinstance(level, FamilyLevel) else 1
        if layer >= m:
            if isinstance(level, FamilyLevel):
                if n == layer + 1:
                    raise LayerError(
                        "the family layer itself is not materializable; "
                        "integrate to the weight layer instead")
                value = integrate_family(level, act=act)
                act = Act(level.weight_space, (value,))
            elif level is TERMINAL:
                if len(act.values) != 1:
                    raise LayerError("terminal level expects a one-point act")
                act = Act(TERMINAL.capacity_space, act.values)
            else:
                act = xi(level, act)
        layer += width
    return act


def value_function(seq: USequence, f: Act, n: int, util: UtilityFunction) -> Act:
    """Utility of an act pushed up n layers by iterated Choquet expectation."""
    _require_same_space(f.space, seq.base_space())
    return xi_chain(seq, f.map(util), 0, n)


def conditional_act(subset: Subset, f: Act, g: Act) -> Act:
    """The act equal to f on the subset and to g off it."""
    _require_same_space(f.space, g.space)
    _require_same_space(f.space, subset.space)
    flags = point_flags(subset.mask).ljust(len(f.space), b"\0")
    return Act(f.space, tuple(a if keep else b for keep, a, b in zip(flags, f.values, g.values)))
