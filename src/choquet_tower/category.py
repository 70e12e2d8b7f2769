"""Arrow checks and the unit/averaging structure over uncertainty spaces.

Everything here is an executable check on finite instances: absolute
continuity and measure preservation for maps, the point-mass unit, the
Choquet averaging of second-order capacities, the substitution rule, and
the two counterexamples (comonotonicity loss and failure of associativity
for non-additive second-order capacities).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .choquet import choquet_integral, choquet_sum
from .core import (TABLE_TOL, Act, Capacity, FiniteSpace, Frozen, Number, PointMap,
                   additive_capacity, exponent, indicator, precompose_act,
                   pushforward, validate_capacity, values_close,
                   _require_same_space)
from .hierarchy import TERMINAL, FamilyLevel, USequence
from .uncertainty import GTransform, UncertaintySpace, epsilon, xi


class MapWitness(Frozen):
    """Verdict of an arrow check plus the evidence behind it.

    On success under absolute continuity, ``dominating`` names the chosen
    dominating capacity per source capacity.  On failure, ``failure`` holds
    a re-verifiable violation: for absolute continuity the failing source
    capacity with one zero set per candidate, for measure preservation the
    unmatched source capacity.
    """

    def __init__(self, verdict: bool, dominating: Optional[dict[str, str]] = None,
                 failure: Optional[tuple] = None):
        self.__dict__.update(verdict=verdict, dominating=dominating, failure=failure)

    def __bool__(self) -> bool:
        return self.verdict


def is_unc_map(h: PointMap, source: UncertaintySpace,
               target: UncertaintySpace) -> MapWitness:
    """Null-set domination: every pushforward is absolutely continuous
    with respect to some target capacity."""
    _require_same_space(h.domain, source.base)
    _require_same_space(h.codomain, target.base)
    dominating: dict[str, str] = {}
    preimages = h.preimage_masks()
    for u_name, u in source.capacities:
        blockers = []
        chosen = None
        for v_name, v in target.capacities:
            bad = None
            for mask, pre in enumerate(preimages):
                if v.is_null(mask) and not u.is_null(pre):
                    bad = mask
                    break
            if bad is None:
                chosen = v_name
                break
            blockers.append((v_name, bad))
        if chosen is None:
            return MapWitness(False, failure=(u_name, tuple(blockers)))
        dominating[u_name] = chosen
    return MapWitness(True, dominating=dominating)


def is_mp_unc_map(h: PointMap, source: UncertaintySpace,
                  target: UncertaintySpace) -> MapWitness:
    """Measure preservation: every pushforward equals some target capacity."""
    _require_same_space(h.domain, source.base)
    _require_same_space(h.codomain, target.base)
    matches: dict[str, str] = {}
    for u_name, u in source.capacities:
        pushed = pushforward(u, h)
        hit = next((v_name for v_name, v in target.capacities if pushed.equals(v)),
                   None)
        if hit is None:
            return MapWitness(False, failure=(u_name, None))
        matches[u_name] = hit
    return MapWitness(True, dominating=matches)


def dirac(space: FiniteSpace, point: str) -> Capacity:
    """The 0/1 capacity concentrated at one point."""
    nums = [0] * len(space)
    nums[space.index(point)] = 1
    return additive_capacity(space, form=(nums, 1))


def embedding_condition(us: UncertaintySpace) -> bool:
    """True iff the point mass of every point is among the capacities."""
    masses = [dirac(us.base, p) for p in us.base.points]
    return all(any(eta.equals(cap) for _, cap in us.capacities) for eta in masses)


class EmbDiracReport(Frozen):
    """Per-capacity outcome of the three point-mass embedding conditions."""

    def __init__(self, verdict: bool, chosen: dict[str, Optional[str]],
                 failures: dict[str, tuple]):
        self.__dict__.update(verdict=verdict, chosen=chosen, failures=failures)


def emb_dirac_conditions(source: UncertaintySpace,
                         second: UncertaintySpace) -> EmbDiracReport:
    """Check the three support conditions for embedding points as point masses.

    ``second`` lives over the capacity list of ``source``.  For every source
    capacity u there must be a second-order capacity v giving positive mass
    to {w : w(A) in {0,1}}, to {w : w(A)=0} whenever u charges the
    complement of A, and to {w : w(A)=1} whenever u charges A.
    """
    if second.base.points != source.names:
        raise ValueError("second-order space must live over the capacity list")
    if not embedding_condition(source):
        raise ValueError("source does not satisfy the embedding condition")
    chosen: dict[str, Optional[str]] = {}
    failures: dict[str, tuple] = {}
    caps = source.capacities
    # per subset A, the masks of the capacities w with w(A) = 0 and with w(A) = 1
    sets = [(mask, sum(1 << j for j, (_, w) in enumerate(caps) if w.is_null(mask)),
             sum(1 << j for j, (_, w) in enumerate(caps)
                 if values_close(w.value(mask), 1, TABLE_TOL)))
            for mask in source.base.all_masks()]
    for u_name, u in caps:
        found = None
        last_reason = None
        for v_name, v in second.capacities:
            reason = None
            for mask, zero, one in sets:
                if v.is_null(zero | one):
                    reason = (1, mask)
                    break
                comp = source.base.full_mask ^ mask
                if not u.is_null(comp) and v.is_null(zero):
                    reason = (2, mask)
                    break
                if not u.is_null(mask) and v.is_null(one):
                    reason = (3, mask)
                    break
            if reason is None:
                found = v_name
                break
            last_reason = (v_name,) + reason
        chosen[u_name] = found
        if found is None:
            failures[u_name] = last_reason
    return EmbDiracReport(verdict=not failures, chosen=chosen, failures=failures)


def mu(us: UncertaintySpace, v: Capacity) -> Capacity:
    """Average a second-order capacity down to the base.

    v lives on the capacity list; the result's value on A is the Choquet
    integral of the evaluation act of A under v.  Additive v over additive
    capacities yields an additive result, computed in mass space as
    w_i = sum_j v_j * c_j({i}) without enumerating subsets of the base,
    skipping zero weights: the unit laws average point masses over levels
    of up to 1540 points.  With exact weights and a ``us.batch`` of mass
    vectors it runs on integer numerators, point i's column being
    ``columns[i]``; other additive capacities average their singleton
    values, whose result is stored in the same reduced form.  Otherwise the
    result is that defining table, checked by ``validate_capacity``, which
    derives its exact form from the values.
    """
    _require_same_space(v.space, us.capacity_space)
    if v.is_additive and us.is_additive:
        if v.exact_form and us.kind == "masses":
            (columns, den), weights = us.batch, v._singleton_keys()
        else:
            columns = list(zip(*(cap.singleton_masses() for _, cap in us.capacities)))
            den, weights = None, v.singleton_masses()
        terms = [(j, w) for j, w in enumerate(weights) if w]
        sums = [sum(w * column[j] for j, w in terms) for column in columns]
        if den:
            return additive_capacity(us.base, form=(sums, den * v._den))
        return additive_capacity(us.base, sums)
    return validate_capacity(us.base, [choquet_integral(v, epsilon(us, mask))
                                       for mask in us.base.all_masks()])


def substitution_check(u: Capacity, h: PointMap, f: Act) -> bool:
    """Integrating f of h under u equals integrating f under the pushforward."""
    _require_same_space(u.space, h.domain)
    _require_same_space(f.space, h.codomain)
    lhs = choquet_integral(u, precompose_act(f, h))
    rhs = choquet_integral(pushforward(u, h), f)
    return values_close(lhs, rhs)


class MonadCounterexample(Frozen):
    """Both routes through the two-layer average on the fixed 10-capacity urn.

    ``difference`` must match ``difference_formula``; it vanishes exactly
    when beta = 1 (the additive case) and not otherwise.  The printed size
    of the capacity family (3) disagrees with the actual count (10); the
    instance follows the printed version, so the second-order set function
    is unnormalized and is integrated as a raw table.
    """

    def __init__(self, beta: Number, lhs: Number, rhs: Number, difference: Number,
                 lhs_closed: Number, rhs_closed: Number, difference_formula: Number,
                 printed_count: int, actual_count: int):
        self.__dict__.update(beta=beta, lhs=lhs, rhs=rhs, difference=difference,
                             lhs_closed=lhs_closed, rhs_closed=rhs_closed,
                             difference_formula=difference_formula,
                             printed_count=printed_count, actual_count=actual_count)


def monad_counterexample(beta: Number) -> MonadCounterexample:
    """Average-then-integrate vs integrate-the-expectations, beta-distorted.

    Fixed instance: three colors, the ten additive capacities u_{i,j} with
    masses (i/3, j/3, (3-i-j)/3), the act worth 3 on R, 1 on B, 0 on Y, and
    the counting set function (|A| / 3) ** beta on the capacity list.
    """
    beta = exponent(beta, "beta")
    n = 3
    space = FiniteSpace(("R", "B", "Y"))
    caps = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            caps.append((f"u{i}{j}",
                         additive_capacity(space, form=([i, j, n - i - j], n))))
    us = UncertaintySpace(space, tuple(caps))
    printed_count = (n - 1) * n // 2
    actual_count = len(caps)

    def power(x: Number) -> Number:
        if isinstance(beta, int):
            return Fraction(x) ** beta
        return float(x) ** float(beta)

    def v_of(mask: int) -> Number:
        return power(Fraction(mask.bit_count(), printed_count))

    f = Act(space, (3, 1, 0))

    avg_table = {mask: choquet_sum(v_of, epsilon(us, mask))
                 for mask in space.all_masks()}
    lhs = choquet_sum(lambda m: avg_table[m], f)
    rhs = choquet_sum(v_of, xi(us, f))

    scale = power(Fraction(1, n)) / n
    lhs_closed = scale * (2 * (power(6) + power(3) + 1)
                          + (power(9) + power(7) + power(4)))
    rhs_closed = scale * (2 + power(2) + power(3) + power(4) + power(5)
                          + power(7) + power(8) + power(9))
    return MonadCounterexample(
        beta=beta, lhs=lhs, rhs=rhs, difference=rhs - lhs,
        lhs_closed=lhs_closed, rhs_closed=rhs_closed,
        difference_formula=scale * (power(2) - power(3) + power(5)
                                    - 2 * power(6) + power(8)),
        printed_count=printed_count, actual_count=actual_count)


def is_ug_map(phi: Sequence[Mapping[str, Union[str, Capacity]]],
              source: USequence, target: USequence, g: GTransform,
              draw: Callable[[FiniteSpace], Act]) -> MapWitness:
    """Level-wise maps commuting with the transformed expectation chain.

    ``phi[k]`` maps level-k points; for k >= 1 the level-k points are the
    level-(k-1) capacity names, and an image may be a capacity object when
    the target level is a parameterized family; an image given by name must
    name a capacity of the target level.  Each of the ``len(phi) - 1``
    levels whose capacities ``phi[k + 1]`` maps is checked: the commuting
    identity must hold on every indicator act of the target level's base,
    then on 50 acts ``draw(base)`` returns.  The source side is one ``xi``
    per lifted act, pulled back along the level's point map, whose entry k
    meets the k-th capacity's image.  A ``TERMINAL`` level's one point is
    ``"*"``: from it the point map sends ``"*"`` to the one image that
    ``phi[k]`` gives, the image of the single capacity below it, and into
    it every image is ``"*"``.
    """
    if len(phi) < 2:
        raise ValueError("need at least two levels of maps")
    for n in range(len(phi) - 1):
        src = source.levels[n] if n < len(source.levels) else TERMINAL
        tgt = target.levels[n] if n < len(target.levels) else TERMINAL
        if isinstance(src, FamilyLevel):
            raise ValueError("family levels are not supported on the source side")
        tgt_base = tgt.base
        points = dict(phi[n])
        if src is TERMINAL:
            images = set(points.values())
            if len(images) != 1:
                raise ValueError(f"the terminal point needs one image, got {len(images)}")
            points = {"*": images.pop()}
        if tgt is TERMINAL:
            points = dict.fromkeys(points, "*")
        point_map = PointMap(src.base, tgt_base, points)

        test_acts = [indicator(tgt_base, mask) for mask in tgt_base.all_masks()]
        test_acts += [draw(tgt_base) for _ in range(50)]
        lifted = [f.map(g.forward) if g.kind != "linear" else f for f in test_acts]
        source_side = [xi(src, precompose_act(act, point_map)).values for act in lifted]

        for k, u_name in enumerate(src.names):
            v = phi[n + 1][u_name]
            if not isinstance(v, Capacity):
                if not isinstance(tgt, UncertaintySpace) or v not in tgt.names:
                    raise ValueError(f"no capacity named {v!r} at the target level")
                v = tgt.capacity(v)
            for f, act, lhs in zip(test_acts, lifted, source_side):
                rhs = choquet_integral(v, act)
                if not values_close(lhs[k], rhs):
                    return MapWitness(False, failure=(n, u_name, f.values, lhs[k], rhs))
    return MapWitness(True)


def compose_ug_maps(phi: Sequence[Mapping], psi: Sequence[Mapping]) -> list[dict]:
    """Pointwise composition of level maps (first phi, then psi)."""
    out = []
    for pk, qk in zip(phi, psi):
        composed = {}
        for key, val in pk.items():
            composed[key] = qk[val] if isinstance(val, str) else val
        out.append(composed)
    return out
