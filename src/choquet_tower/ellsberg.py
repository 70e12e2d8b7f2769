"""The single-urn thought experiment, run through two and three layers.

An urn holds 3N balls: N red, and blue/yellow in unknown proportion.  The
first layer is a family of capacities u_k indexed by the hypothetical blue
count (distorted by an exponent alpha >= 1); the second layer weighs the
u_k uniformly (variant X) or binomially (variant Y); variant Z makes the
binomial parameter itself uncertain and weighs it with Lebesgue measure,
adding a third layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable

from .core import (TABLE_TOL, Act, Capacity, FiniteSpace, Frozen, Number, _echo,
                   additive_capacity, exponent, indicator, make_space,
                   validate_capacity, values_close)
from .hierarchy import (TERMINAL, FamilyLevel, USequence, UtilityFunction,
                        conditional_act, value_function)
from .uncertainty import UncertaintySpace

ACT_NAMES = ("f1", "f2", "f3", "f4")
#: the urn's points: a red, a blue and a yellow ball
URN_POINTS = ("R", "B", "Y")
#: each variant's top layer, the scalar one with a closed form; layer 1 is
#: the capacity-indexed profile
TOP_LAYER = {"X": 2, "Y": 2, "Z": 3}
VARIANTS = tuple(TOP_LAYER)
#: largest work estimate (``UrnParams.work``) ``build_sequence`` accepts,
#: about 6 s of urn command at 0.1 us a unit
MAX_URN_WORK = 6 * 10**7


class UrnParams(Frozen):
    """Ball-count scale N (3N balls), distortion exponent, and utility anchor."""

    def __init__(self, big_n: int, alpha: Number, u1: Number):
        if big_n < 1:
            raise ValueError("need N >= 1")
        alpha = exponent(alpha, "alpha")
        if not 0 < u1 < 1:
            raise ValueError("need 0 < u1 < 1")
        self.__dict__.update(big_n=big_n, alpha=alpha, u1=u1)

    def work(self, variant: str) -> int:
        """The work estimate of the urn sequence of ``variant``, in units of
        about 0.1 us of command time: (2N+1) times the cost of one u_k, plus
        that of its weight for Y.

        An exact table (whole alpha) costs 65 units plus one per 6 bits of
        its numerators, b = alpha log2(2N) bits, as checked and integrated
        in one batch; a float one (non-whole alpha), checked alone, 1500.
        Y's binomial weights hold up to 2N bits each, and each is multiplied
        by numerators of about b bits: beside exact tables a weight bit
        costs (b + 350) / 22000 of a unit (about 1/57 at alpha 2, 0.6 at
        alpha 1000), but beside floats each weight becomes a Fraction, at a
        unit a bit.
        """
        two_n = 2 * self.big_n
        if isinstance(self.alpha, int):
            bits = math.ceil(self.alpha * math.log2(two_n))
            table, weight = bits // 6 + 65, two_n * (bits + 350) // 22000
        else:
            table, weight = 1500, two_n
        return (two_n + 1) * (table + (weight if variant == "Y" else 0))

    def ratio_power(self, k: int) -> Number:
        """(k / 2N) ** alpha in the proper backend."""
        t = Fraction(k, 2 * self.big_n)
        if isinstance(self.alpha, int):
            return t ** self.alpha
        return float(t) ** float(self.alpha)


def build_urn_space(params: UrnParams) -> UncertaintySpace:
    """The urn with one capacity u_k per hypothetical blue count k = 0..2N.

    Every table is one row of a batch written as a list per mask column: in
    mask order R, B, RB, Y, RY, BY it holds h, b_k, h + b_k, b_(2N-k),
    h + b_(2N-k) and 2h, over 3h.  A whole alpha gives integer numerators,
    h = (2N)^alpha / 2 and b_k = k^alpha, and the batch goes to
    ``UncertaintySpace.of_columns``, which checks it as one and builds a
    capacity only when one is asked for.  Otherwise h = 1/3 over 1, b_k is
    2h (k / 2N)^alpha in floats, and ``validate_capacity`` checks each row.
    """
    space = make_space(URN_POINTS)
    two_n = 2 * params.big_n
    count = two_n + 1
    names = tuple(f"u{k}" for k in range(count))
    whole = isinstance(params.alpha, int)
    if whole:
        h = two_n ** params.alpha // 2
        powers, den = [k ** params.alpha for k in range(count)], 3 * h
    else:
        h, den = Fraction(1, 3), 1
        powers = [2 * h * params.ratio_power(k) for k in range(count)]
    plus = [h + p for p in powers]
    columns = [[0] * count, [h] * count, powers, plus,
               powers[::-1], plus[::-1], [2 * h] * count, [den] * count]
    if whole:
        return UncertaintySpace.of_columns(space, names, columns, den)
    return UncertaintySpace(space, tuple(zip(names, (validate_capacity(space, row)
                                                     for row in zip(*columns)))))


def standard_acts(space: FiniteSpace) -> dict[str, Act]:
    """Bets on red, blue, blue-or-yellow, red-or-yellow."""
    return {
        "f1": indicator(space, space.subset(["R"])),
        "f2": indicator(space, space.subset(["B"])),
        "f3": indicator(space, space.subset(["B", "Y"])),
        "f4": indicator(space, space.subset(["R", "Y"])),
    }


def binomial_family(urn: UncertaintySpace, big_n: int) -> FamilyLevel:
    """p maps to the binomial(2N, p) weighting of the u_k, built on demand
    from the masses C(2N, k) p^k (1-p)^(2N-k) in p's own arithmetic (an
    exact p's reduced form is derived by ``additive_capacity``, which also
    refuses the negative masses of a p outside [0, 1])."""
    two_n = 2 * big_n
    base = urn.capacity_space

    def member(p: Number) -> Capacity:
        q = 1 - p
        return additive_capacity(base, [math.comb(two_n, k) * p ** k * q ** (two_n - k)
                                        for k in range(two_n + 1)])

    return FamilyLevel(base=base, family=member, binomial_n=two_n)


def build_sequence(variant: str, params: UrnParams) -> USequence:
    """Assemble the urn sequence for variant X (uniform), Y (binomial at
    p=1/2), or Z (binomial family under Lebesgue weight).

    A sequence whose ``UrnParams.work`` exceeds MAX_URN_WORK is refused
    before anything is built."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    work = params.work(variant)
    if work > MAX_URN_WORK:
        raise ValueError(f"variant {variant} at N = {_echo(str(params.big_n))} and alpha = "
                         f"{params.alpha} has a work estimate of about 10^"
                         f"{int(math.log10(work))}, above MAX_URN_WORK = {MAX_URN_WORK:.0e}")
    urn = build_urn_space(params)
    if variant == "Z":
        return USequence((urn, binomial_family(urn, params.big_n), TERMINAL))
    nums, den = _weight_numerators(variant, 2 * params.big_n)
    weights = additive_capacity(urn.capacity_space, form=(list(nums), den))
    level1 = UncertaintySpace(urn.capacity_space,
                              (("vu" if variant == "X" else "vb", weights),))
    return USequence((urn, level1, TERMINAL))


def _weight_numerators(variant: str, two_n: int) -> tuple[Iterable[int], int]:
    """Weight of each u_k in the final one-point layer, as integer
    numerators, k ascending, and their one denominator: uniform for X and
    for Z (each binomial mass integrates to 1/(2N+1) over p), binomial at
    p = 1/2 for Y, its coefficients C(2N, k) by the multiplicative
    recurrence, each made as it is read."""
    if variant == "Y":
        return accumulate(range(two_n), lambda coef, k: coef * (two_n - k) // (k + 1),
                          initial=1), 2 ** two_n
    return repeat(1, two_n + 1), two_n + 1


def closed_form_values(variant: str, params: UrnParams,
                       layer: int) -> dict[str, Number]:
    """Top-layer values of the four bets by direct summation.

    Only a variant's scalar top layer (``TOP_LAYER``) has a closed form; it is
    the utility anchor times the weighted mean of the distorted odds.  Every
    variant's weights are symmetric, w_k = w_{2N-k}, so the mean of
    ((2N-k)/2N)^alpha, the bet on yellow's, equals that of (k/2N)^alpha,
    the bet on blue's, and one mean serves both.  The weights are made
    afresh, one at a time, and the weighted sum is accumulated as they come,
    so no list of 2N+1 weights is held beside the sequence's.  With a whole
    alpha the mean is one Fraction of integer sums: weight numerators times
    k^alpha over the weight denominator times (2N)^alpha.
    """
    if TOP_LAYER.get(variant) != layer:
        raise ValueError(f"no closed form for variant {variant} at layer {layer}")
    two_n = 2 * params.big_n
    u1 = params.u1
    nums, den = _weight_numerators(variant, two_n)
    alpha = params.alpha
    if isinstance(alpha, int):
        mean = Fraction(sum(weight * k ** alpha for k, weight in enumerate(nums)),
                        den * two_n ** alpha)
    else:
        mean = sum(weight / den * params.ratio_power(k) for k, weight in enumerate(nums))
    third = Fraction(1, 3)
    return {
        "f1": u1 * third,
        "f2": u1 * 2 * third * mean,
        "f3": u1 * 2 * third,
        "f4": u1 * (third + 2 * third * mean),
    }


def _compare(a: Number, b: Number) -> str:
    if values_close(a, b, TABLE_TOL):
        return "="
    return ">" if a > b else "<"


def _pointwise_verdict(left: tuple, right: tuple) -> str:
    rels = {_compare(a, b) for a, b in zip(left, right)}
    if rels == {"="}:
        return "="
    if "=" in rels and len(rels) > 1 or rels == {">", "<"}:
        return "incomparable"
    return rels.pop()


class EllsbergReport(Frozen):
    """Values of the four bets at one layer, with the induced orderings."""

    def __init__(self, variant: str, layer: int, params: UrnParams,
                 point_labels: tuple[str, ...], values: dict[str, tuple[Number, ...]],
                 f1_vs_f2: str, f3_vs_f4: str, verdict: str, paradox_represented: bool):
        self.__dict__.update(variant=variant, layer=layer, params=params,
                             point_labels=point_labels, values=values,
                             f1_vs_f2=f1_vs_f2, f3_vs_f4=f3_vs_f4, verdict=verdict,
                             paradox_represented=paradox_represented)

    def rows(self):
        for name in ACT_NAMES:
            for label, value in zip(self.point_labels, self.values[name]):
                yield name, label, value


def ellsberg_report(variant: str, params: UrnParams, layer: int) -> EllsbergReport:
    """Run one variant to the requested layer and judge the bet orderings.

    Values are produced by the layered expectation chain and re-derived from
    the direct summation formulas.  The two must agree (exactly when both
    are exact, else within ``VALUE_TOL``) for the bets to be ordered; if
    they do not, the verdict is "disagrees with the closed form".
    """
    if variant not in TOP_LAYER:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    allowed = (1, TOP_LAYER[variant])
    if layer not in allowed:
        raise ValueError(f"variant {variant} supports layers {allowed}, got {layer}")
    seq = build_sequence(variant, params)
    util = UtilityFunction.anchored(params.u1)
    acts = standard_acts(seq.base_space())
    values = {}
    labels = None
    for name in ACT_NAMES:
        act = value_function(seq, acts[name], layer, util)
        values[name] = act.values
        labels = act.space.points

    f12 = _pointwise_verdict(values["f1"], values["f2"])
    f34 = _pointwise_verdict(values["f3"], values["f4"])
    closed = closed_form_values(variant, params, layer) if layer != 1 else None
    if closed and not all(values_close(values[name][0], closed[name])
                          for name in ACT_NAMES):
        verdict = "disagrees with the closed form"
    elif f12 == "=" and f34 == "=":
        verdict = "equalities"
    elif f12 == ">" and f34 == ">":
        verdict = "supports modal preference"
    else:
        verdict = "mixed"
    return EllsbergReport(
        variant=variant, layer=layer, params=params, point_labels=labels,
        values=values, f1_vs_f2=f12, f3_vs_f4=f34, verdict=verdict,
        paradox_represented=(verdict == "supports modal preference"))


class ParadoxReport(Frozen):
    """The P2 conflict: which act identities hold and how the layers resolve it."""

    def __init__(self, identities: tuple[tuple[str, bool], ...], identities_hold: bool,
                 modal_preference: str, p2_consequence: str, branch: str,
                 layer2: EllsbergReport):
        self.__dict__.update(identities=identities,
                             identities_hold=identities_hold,
                             modal_preference=modal_preference,
                             p2_consequence=p2_consequence, branch=branch,
                             layer2=layer2)


def paradox_demo(params: UrnParams) -> ParadoxReport:
    """Exhibit the single-urn conflict and whether layer 2 represents it.

    The conditional-act identities make the modal preference (bet on known
    odds) contradict the sure-thing principle; with alpha = 1 the two-layer
    values collapse to equalities, with alpha > 1 they order the bets the
    modal way.
    """
    report = ellsberg_report("X", params, 2)
    space = make_space(URN_POINTS)
    acts = standard_acts(space)
    rb = space.subset(["R", "B"])
    zero = Act(space, (0, 0, 0))
    one = Act(space, (1, 1, 1))
    identities = (
        ("(RB; f1, 0) = f1", conditional_act(rb, acts["f1"], zero) == acts["f1"]),
        ("(RB; f2, 0) = f2", conditional_act(rb, acts["f2"], zero) == acts["f2"]),
        ("(RB; f1, 1) = f4", conditional_act(rb, acts["f1"], one) == acts["f4"]),
        ("(RB; f2, 1) = f3", conditional_act(rb, acts["f2"], one) == acts["f3"]),
    )
    if report.verdict == "supports modal preference":
        branch = "modal preference represented"
    elif report.verdict == "equalities":
        branch = "paradox not representable"
    elif report.verdict == "mixed":
        branch = "mixed ordering"
    else:
        branch = report.verdict
    return ParadoxReport(
        identities=identities,
        identities_hold=all(ok for _, ok in identities),
        modal_preference="f1 > f2 and f3 > f4",
        p2_consequence="sure-thing principle forces (f1 >= f2) iff (f4 >= f3)",
        branch=branch,
        layer2=report,
    )
