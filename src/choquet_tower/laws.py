"""Seeded law suites shared by the test suite and the command line.

Each suite runs deterministic trials derived from a single seed, one
after another in trial order, and reports per-law counts with the first
counterexample, if any.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Optional

from .category import (compose_ug_maps, dirac, is_mp_unc_map, is_ug_map,
                       is_unc_map, monad_counterexample, mu,
                       substitution_check)
from .choquet import chain_act, choquet_integral, choquet_sum
from .core import (Act, Capacity, FiniteSpace, Frozen, PointMap, _cover_slices,
                   additive_capacity, indicator, pushforward, validate_capacity)
from .ellsberg import UrnParams, build_sequence, standard_acts
from .tower import (GridTower, ProjectiveVector, build_tower, project,
                    projective_consistency)
from .uncertainty import GTransform, UncertaintySpace, epsilon, xi

LABELS = "abcdefgh"


class LawResult(Frozen):
    def __init__(self, name: str, trials: int, failures: int,
                 first_failure: Optional[str] = None):
        self.__dict__.update(name=name, trials=trials, failures=failures,
                             first_failure=first_failure)

    @property
    def passed(self) -> bool:
        return self.failures == 0


class SuiteReport(Frozen):
    def __init__(self, suite: str, seed: int, laws: tuple[LawResult, ...]):
        self.__dict__.update(suite=suite, seed=seed, laws=laws)

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "laws": [dict(vars(law)) for law in self.laws],
        }


def _run_law(name: str, trials: int, seed: int,
             trial_fn: Callable[[random.Random], Optional[str]]) -> LawResult:
    """Run one law; trial_fn returns None on success, else a description.
    A trial that raises fails, described by the exception's type and message."""
    def outcome(i: int) -> Optional[str]:
        try:
            return trial_fn(random.Random((seed * 1000003 + i) & 0xFFFFFFFF))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    failures = [o for o in map(outcome, range(trials)) if o is not None]
    return LawResult(name, trials, len(failures),
                     failures[0] if failures else None)


# ---------------------------------------------------------------------------
# random generators (exact rational values throughout)

def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n) as ``Random.randrange(n)`` makes it from ``bits``
    (a ``getrandbits``): ``randint`` and ``choice`` take the same stream."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def rand_fraction(rng: random.Random) -> Fraction:
    # a numerator in [-8, 8] over a denominator in 1..6
    bits = rng.getrandbits
    return Fraction(_below(bits, 17) - 8, 1 + _below(bits, 6))


@cache
def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(LABELS[:n]))


def rand_space(rng: random.Random, max_points: int = 6) -> FiniteSpace:
    return _space(2 + _below(rng.getrandbits, max_points - 1))


def _drawn_act(rng: random.Random, space: FiniteSpace, lo: int) -> Act:
    # values in [lo, 8] over 1..6, drawn as ``rand_fraction`` draws them
    # (numerator, then denominator, point by point) into the act's form
    bits = rng.getrandbits
    pairs = [(lo + _below(bits, 9 - lo), 1 + _below(bits, 6)) for _ in space.points]
    den = math.lcm(*(d for _, d in pairs))
    return Act(space, form=([n * (den // d) for n, d in pairs], den))


def rand_act(rng: random.Random, space: FiniteSpace) -> Act:
    return _drawn_act(rng, space, -8)


def rand_nonneg_act(rng: random.Random, space: FiniteSpace) -> Act:
    return _drawn_act(rng, space, 0)


def rand_capacity(rng: random.Random, space: FiniteSpace) -> Capacity:
    """Random monotone table: raw draws pushed up along set inclusion.

    Values are sixteenths, drawn and pushed up as integer numerators that
    the capacity keeps as its exact form.  One draw per non-empty mask, in
    mask order, as ``randint(0, 16)`` would take it; then one pass per point
    raises each mask holding it to at least the mask without it, so every
    entry ends as the largest draw on its subsets.
    """
    n = len(space)
    bits = rng.getrandbits
    nums = [0] + [_below(bits, 17) for _ in range((1 << n) - 1)]
    for _, lo, hi in _cover_slices(n):
        # a comparison inline costs less than a call to max per entry
        nums[hi] = [a if a > b else b for a, b in zip(nums[hi], nums[lo])]
    nums[-1] = 16
    # unchecked, being monotone by construction: checking a 6-point table takes
    # about 25 us, 43-51 ms over the 4 996 tables of a `laws --seed 1000` pass
    return Capacity(space, table=nums, den=16)


def rand_additive(rng: random.Random, space: FiniteSpace) -> Capacity:
    bits = rng.getrandbits
    weights = [_below(bits, 9) for _ in space.points]
    if sum(weights) == 0:
        weights[_below(bits, len(weights))] = 1
    return additive_capacity(space, form=(weights, sum(weights)))


def rand_nonadditive(rng: random.Random, space: FiniteSpace) -> Capacity:
    for _ in range(50):
        cap = rand_capacity(rng, space)
        if not cap.is_additive:
            return cap
    raise AssertionError("failed to draw a non-additive capacity")


def rand_point_map(rng: random.Random, domain: FiniteSpace,
                   codomain: FiniteSpace) -> PointMap:
    points, bits = codomain.points, rng.getrandbits
    return PointMap(domain, codomain,
                    {p: points[_below(bits, len(points))] for p in domain.points})


def rand_comonotonic_pair(rng: random.Random, space: FiniteSpace) -> tuple[Act, Act]:
    """Draw a shared chain with two non-increasing value sequences."""
    n = len(space)
    order = list(range(n))
    rng.shuffle(order)
    bits = rng.getrandbits
    cuts = sorted(_below(bits, n) for _ in range(_below(bits, n)))
    blocks = []
    start = 0
    for c in cuts + [n]:
        if c > start:
            mask = 0
            for i in order[start:c]:
                mask |= 1 << i
            blocks.append(mask)
            start = c
    k = len(blocks)
    f_vals = sorted((rand_fraction(rng) for _ in range(k)), reverse=True)
    g_vals = sorted((rand_fraction(rng) for _ in range(k)), reverse=True)
    f = chain_act(space, tuple(zip(blocks, f_vals)))
    g = chain_act(space, tuple(zip(blocks, g_vals)))
    return f, g


def distinct_space(space: FiniteSpace, capacities: Iterable[Capacity],
                   prefix: str) -> UncertaintySpace:
    """The distinct capacities, first copies in order, named `prefix` + counter."""
    return UncertaintySpace(space, tuple(
        (f"{prefix}{i}", cap) for i, cap in enumerate(dict.fromkeys(capacities))))


def rand_uncertainty_space(rng: random.Random, space: FiniteSpace) -> UncertaintySpace:
    caps: dict = {}
    want = 1 + _below(rng.getrandbits, 3)
    tries = 0
    while len(caps) < want and tries < 30:
        caps.setdefault(rand_capacity(rng, space))
        tries += 1
    return distinct_space(space, caps, "w")


# ---------------------------------------------------------------------------
# suites

def run_choquet_suite(seed: int, trials: int) -> SuiteReport:
    def monotonicity(rng):
        space = rand_space(rng)
        u = rand_capacity(rng, space)
        g, h = rand_act(rng, space), rand_nonneg_act(rng, space)
        f = g + h
        if (f - g).exact_form != h.exact_form:
            return f"(g + h) - g != h on {space.points}"
        if choquet_integral(u, f) < choquet_integral(u, g):
            return f"I(f) < I(g) for f >= g on {space.points}"
        # the dense table integrates the indicator of h's support to its value
        support = sum(1 << i for i, v in enumerate(h.exact_form[0]) if v > 0)
        if choquet_integral(u, indicator(space, support)) != u.value(support):
            return f"I(1_A) != u(A) on {space.points}"
        return None

    def comonotonic_additivity(rng):
        space = rand_space(rng)
        u = rand_capacity(rng, space)
        f, g = rand_comonotonic_pair(rng, space)
        if choquet_integral(u, f + g) != choquet_integral(u, f) + choquet_integral(u, g):
            return f"I(f+g) != I(f)+I(g) on {space.points}"
        return None

    def positive_homogeneity(rng):
        space = rand_space(rng)
        u = rand_capacity(rng, space)
        f = rand_act(rng, space)
        lam = Fraction(1 + _below(rng.getrandbits, 12), 1 + _below(rng.getrandbits, 12))
        if choquet_integral(u, f.scale(lam)) != lam * choquet_integral(u, f):
            return f"I(lam f) != lam I(f) for lam={lam}"
        return None

    def additive_linearity(rng):
        space = rand_space(rng)
        u = rand_additive(rng, space)
        f, g = rand_act(rng, space), rand_act(rng, space)
        a, b = rand_fraction(rng), rand_fraction(rng)
        lhs = choquet_integral(u, f.scale(a) + g.scale(b))
        rhs = a * choquet_integral(u, f) + b * choquet_integral(u, g)
        if lhs != rhs:
            return f"additive capacity not linear: {lhs} vs {rhs}"
        direct = choquet_integral(u, f)
        weighted = sum(v * m for v, m in zip(f.values, u.singleton_masses()))
        if direct != weighted:
            return "additive capacity does not reduce to the weighted sum"
        if direct != choquet_sum(u.value, f):
            return "mass-vector integral differs from the telescoping sum"
        return None

    return SuiteReport("choquet", seed, (
        _run_law("monotonicity", trials, seed + 1, monotonicity),
        _run_law("comonotonic-additivity", trials, seed + 2, comonotonic_additivity),
        _run_law("positive-homogeneity", trials, seed + 3, positive_homogeneity),
        _run_law("additive-linearity", trials, seed + 4, additive_linearity),
    ))


def run_dirac_suite(seed: int, trials: int) -> SuiteReport:
    def table_identity(rng):
        space = rand_space(rng, 5)
        for p in space.points:
            eta = dirac(space, p)
            for mask in space.all_masks():
                if eta.value(mask) != (1 if mask >> space.index(p) & 1 else 0):
                    return f"point mass wrong at {p}, mask {mask}"
        return None

    def evaluation(rng):
        space = rand_space(rng, 5)
        f = rand_act(rng, space)
        k = _below(rng.getrandbits, len(space))
        p = space.points[k]
        if choquet_integral(dirac(space, p), f) != f.at(p):
            return f"I under point mass at {p} is not evaluation"
        # the same point mass as a dense 0/1 table takes the dense branch
        table = validate_capacity(space, [m >> k & 1 for m in space.all_masks()])
        if choquet_integral(table, f) != f.at(p):
            return f"I under the dense point mass at {p} is not evaluation"
        return None

    def naturality(rng):
        domain = rand_space(rng, 5)
        codomain = rand_space(rng, 5)
        h = rand_point_map(rng, domain, codomain)
        p = domain.points[_below(rng.getrandbits, len(domain))]
        if pushforward(dirac(domain, p), h) != dirac(codomain, h(p)):
            return f"pushforward of point mass at {p} is not the point mass at {h(p)}"
        return None

    return SuiteReport("dirac", seed, (
        _run_law("table-identity", max(1, trials // 10), seed + 1, table_identity),
        _run_law("integral-evaluates", trials, seed + 2, evaluation),
        _run_law("naturality", max(1, trials // 2), seed + 3, naturality),
    ))


def _unit_laws(tower: GridTower, level: int) -> Optional[str]:
    """Both unit laws at one tower level, checked on every grid point."""
    view = tower.view(level)
    lift = PointMap(view.base, view.capacity_space,
                    {p: tower.find_name(level + 1, dirac(view.base, p))
                     for p in view.base.points})
    for name, cap in view.capacities:
        back = mu(view, dirac(view.capacity_space, name))
        if back != cap:
            return f"averaging a point mass at {name} is not the identity"
        inner = mu(view, pushforward(cap, lift))
        if inner != cap:
            return f"averaging the lifted {name} is not the identity"
    return None


def _suite_tower(suite: str, grid: int, space_size: int, depth: int) -> GridTower:
    # both suites reach tower level 2
    if depth < 2:
        raise ValueError(f"the {suite} suite needs a tower depth of at least 2, "
                         f"got {depth}")
    if space_size < 1:
        raise ValueError(f"the {suite} suite needs a space size of at least 1, "
                         f"got {space_size}")
    return build_tower(FiniteSpace(tuple(LABELS[:space_size])), grid, depth)


def run_monad_suite(seed: int, trials: int, grid: int, space_size: int,
                    depth: int) -> SuiteReport:
    tower = _suite_tower("monad", grid, space_size, depth)

    def unit(rng):
        for level in range(tower.depth):
            problem = _unit_laws(tower, level)
            if problem:
                return problem
        return None

    # mu's defining table without mu: per base subset A, x -> I(x, epsilon(A)) on level 2
    evaluations = [xi(tower.view(1), epsilon(tower.view(0), mask))
                   for mask in tower.base.all_masks()]

    def associativity(rng):
        w = rand_additive(rng, tower.space_at(2))
        left = mu(tower.view(0), mu(tower.view(1), w))
        table = [choquet_sum(w.value, act) for act in evaluations]
        for mask in tower.base.all_masks():
            if left.value(mask) != table[mask]:
                return f"associativity broke at mask {mask} for {w}"
        return None

    def counterexample(rng):
        flat = monad_counterexample(1)
        if flat.difference != 0 or flat.difference != flat.difference_formula:
            return "additive case must have zero difference"
        bent = monad_counterexample(2)
        if bent.difference != Fraction(4, 9) or bent.difference != bent.difference_formula:
            return f"distorted difference {bent.difference} != 4/9"
        return None

    return SuiteReport("monad", seed, (
        _run_law("unit-laws", 1, seed + 1, unit),
        _run_law("associativity-additive", trials, seed + 2, associativity),
        _run_law("counterexample", 1, seed + 3, counterexample),
    ))


def run_substitution_suite(seed: int, trials: int) -> SuiteReport:
    domain = _space(4)
    codomain = FiniteSpace(tuple("xyz"))

    def substitution(rng):
        u = rand_nonadditive(rng, domain)
        h = rand_point_map(rng, domain, codomain)
        f = rand_act(rng, codomain)
        if not substitution_check(u, h, f):
            return f"substitution failed for {h.mapping}"
        return None

    return SuiteReport("substitution", seed, (
        _run_law("substitution", trials, seed + 1, substitution),
    ))


def run_retraction_suite(grid: int, depth: int, space_size: int, seed: int) -> SuiteReport:
    if space_size < 2:
        # on one point {a} is the full set: no inconsistent vector to detect
        raise ValueError(f"the retraction suite needs a base of at least 2 points, "
                         f"got {space_size}")
    tower = _suite_tower("retraction", grid, space_size, depth)

    def retraction(rng):
        for n in range(1, tower.depth + 1):
            for m in range(n, tower.depth + 1):
                for name, cap in tower.view(n - 1).capacities:
                    lifted = project(tower, cap, n, m)
                    if tower.find_name(m, lifted) is None:
                        return f"lift of {name} to level {m} left the grid"
                    if project(tower, lifted, m, n) != cap:
                        return f"retraction {m}->{n} moved {name}"
        return None

    def composition(rng):
        # the other side of a descent is built without mu: each averaging
        # step is its defining table A -> I(v, epsilon(view, A))
        evaluations = [[epsilon(view, mask) for mask in view.base.all_masks()]
                       for view in tower.views[:-1]]
        descents = {}
        for l in range(2, tower.depth + 1):
            for name, cap in tower.view(l - 1).capacities:
                for n in range(l - 1, 0, -1):
                    cap = validate_capacity(tower.space_at(n - 1), [
                        choquet_integral(cap, act) for act in evaluations[n - 1]])
                    descents[l, n, name] = cap
        triples = [(l, m, n) for l in range(1, tower.depth + 1)
                   for m in range(1, tower.depth + 1)
                   for n in range(1, tower.depth + 1)
                   if l >= m >= n or l <= m <= n]
        for l, m, n in triples:
            # a descent may leave the grid; the next descent carries it on
            for name, cap in tower.view(l - 1).capacities:
                composed = project(tower, project(tower, cap, l, m), m, n)
                direct = descents[l, n, name] if l > n else project(tower, cap, l, n)
                if composed != direct:
                    return f"composition {l}->{m}->{n} differs from {l}->{n} at {name}"
        return None

    def consistency_detector(rng):
        name, cap = tower.view(0).capacities[0]
        lifted = dirac(tower.space_at(1), name)
        ok, idx = projective_consistency(ProjectiveVector(tower, (cap, lifted)))
        if not ok:
            return f"point-mass chain flagged inconsistent at {idx}"
        # move the first point's value by a grid step; a raise lifts every
        # superset to at least the new value so the table stays monotone
        tweaked = [cap.value(mask) for mask in tower.base.all_masks()]
        step = Fraction(1, tower.grid)
        if tweaked[1] + step <= 1:
            bumped = tweaked[1] + step
            # the odd masks are those holding the first point
            tweaked[1::2] = [max(v, bumped) for v in tweaked[1::2]]
        else:
            tweaked[1] -= step
        perturbed = validate_capacity(tower.base, tweaked)
        ok, idx = projective_consistency(ProjectiveVector(tower, (perturbed, lifted)))
        if ok or idx != 1:
            return "perturbed vector was not flagged at index 1"
        return None

    return SuiteReport("retraction", seed, (
        _run_law("retraction", 1, seed + 1, retraction),
        _run_law("monotone-composition", 1, seed + 2, composition),
        _run_law("consistency-detector", 1, seed + 3, consistency_detector),
    ))


def _urn_maps(urn: UncertaintySpace, top: dict) -> list[dict]:
    """Level maps of a ug-map: identities on the urn's points and
    capacities, then ``top`` on the last level."""
    return [{p: p for p in urn.base.points},
            {name: name for name, _ in urn.capacities}, top]


def run_ug_map_suite(seed: int) -> SuiteReport:
    params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
    seq_x = build_sequence("X", params)
    seq_y = build_sequence("Y", params)
    seq_z = build_sequence("Z", params)
    g_lin = GTransform.linear(1)
    g_ent = GTransform.entropic(1.0)
    urn, family = seq_y.levels[0], seq_z.levels[1]
    # fixed acts, so no draw is added: the bets, and one with three levels
    bets = (*standard_acts(urn.base).values(), Act(urn.base, (3, 1, 2)))

    def identity(rng):
        # xi's all-capacity sum against the telescoping definition, per capacity
        for f in bets:
            if xi(urn, f).values != tuple(choquet_sum(cap.value, f)
                                          for _, cap in urn.capacities):
                return f"xi disagrees with choquet_sum on the act {f.values}"
        phi, draw = _urn_maps(urn, {"vu": "vu"}), partial(rand_act, rng)
        if not is_ug_map(phi, seq_x, seq_x, g_lin, draw):
            return "identity maps failed under the linear transform"
        if not is_ug_map(phi, seq_x, seq_x, g_ent, draw):
            return "identity maps failed under the entropic transform"
        return None

    def inclusion(rng):
        phi = _urn_maps(urn, {"vb": family.member(Fraction(1, 2))})
        if not is_ug_map(phi, seq_y, seq_z, g_lin, partial(rand_act, rng)):
            return "binomial midpoint inclusion failed"
        return None

    def composition(rng):
        composed = compose_ug_maps(_urn_maps(urn, {"vb": "vb"}),
                                   _urn_maps(urn, {"vb": family.member(Fraction(1, 2))}))
        if not is_ug_map(composed, seq_y, seq_z, g_lin, partial(rand_act, rng)):
            return "composition of passing maps failed"
        return None

    return SuiteReport("ug-map", seed, (
        _run_law("identity", 1, seed + 1, identity),
        _run_law("inclusion-at-midpoint", 1, seed + 2, inclusion),
        _run_law("composition", 1, seed + 3, composition),
    ))


def run_unc_maps_suite(seed: int, trials: int) -> SuiteReport:
    def mp_implies_unc(rng):
        domain = rand_space(rng, 4)
        codomain = rand_space(rng, 3)
        source = rand_uncertainty_space(rng, domain)
        h = rand_point_map(rng, domain, codomain)
        target = distinct_space(codomain, (pushforward(cap, h)
                                           for _, cap in source.capacities), "v")
        if not is_mp_unc_map(h, source, target):
            return "pushforward-built map not measure preserving"
        if not is_unc_map(h, source, target):
            return "measure preserving map not null-set dominated"
        return None

    def composition_closure(rng):
        a = rand_space(rng, 4)
        b = rand_space(rng, 3)
        c = FiniteSpace(tuple("pq"))
        src = rand_uncertainty_space(rng, a)
        f = rand_point_map(rng, a, b)
        g = rand_point_map(rng, b, c)
        mid = distinct_space(b, (pushforward(cap, f) for _, cap in src.capacities), "v")
        end = distinct_space(c, (pushforward(cap, g) for _, cap in mid.capacities), "z")
        if not is_mp_unc_map(f.then(g), src, end):
            return "composition of measure preserving maps failed"
        if not is_unc_map(f.then(g), src, end):
            return "composition of dominated maps failed"
        return None

    def full_support_target(rng):
        domain = rand_space(rng, 4)
        codomain = rand_space(rng, 3)
        source = rand_uncertainty_space(rng, domain)
        uniform = additive_capacity(codomain, form=([1] * len(codomain), len(codomain)))
        target = UncertaintySpace(codomain, (("uniform", uniform),))
        h = rand_point_map(rng, domain, codomain)
        if not is_unc_map(h, source, target):
            return "map into a fully supported capacity must be dominated"
        return None

    def killed_singleton(rng):
        domain = FiniteSpace(("a", "b"))
        codomain = FiniteSpace(("c", "d"))
        source = UncertaintySpace(domain, (("u", dirac(domain, "a")),))
        v = additive_capacity(codomain, form=([0, 1], 1))
        target = UncertaintySpace(codomain, (("v", v),))
        h = PointMap(domain, codomain, {"a": "c", "b": "d"})
        witness = is_unc_map(h, source, target)
        if witness.verdict:
            return "map into a capacity killing the image must fail"
        u_name, blockers = witness.failure
        v_name, mask = blockers[0]
        if not (v.value(mask) == 0 and source.capacity(u_name).value(
                h.preimage_mask(mask)) > 0):
            return "failure witness does not re-verify"
        return None

    return SuiteReport("unc-maps", seed, (
        _run_law("mp-implies-dominated", trials, seed + 1, mp_implies_unc),
        _run_law("composition-closure", trials, seed + 2, composition_closure),
        _run_law("full-support-target", trials, seed + 3, full_support_target),
        _run_law("killed-singleton-witness", 1, seed + 4, killed_singleton),
    ))


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "choquet": run_choquet_suite,
    "dirac": run_dirac_suite,
    "monad": run_monad_suite,
    "substitution": run_substitution_suite,
    "retraction": run_retraction_suite,
    "ug-map": run_ug_map_suite,
    "unc-maps": run_unc_maps_suite,
}
