"""Acceptance suite: one test per release criterion, timed where stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import random
import time
from fractions import Fraction

from choquet_tower.category import dirac, monad_counterexample, mu
from choquet_tower.choquet import are_comonotonic, choquet_integral
from choquet_tower.core import (Act, FiniteSpace, additive_capacity,
                                make_space, pushforward, validate_capacity)
from choquet_tower.ellsberg import (UrnParams, build_sequence, ellsberg_report,
                                    paradox_demo, standard_acts)
from choquet_tower.hierarchy import UtilityFunction, integrate_family, \
    value_function
from choquet_tower.laws import (_unit_laws, rand_act, rand_additive,
                                rand_point_map, run_choquet_suite,
                                run_substitution_suite)
from choquet_tower.tower import ProjectiveVector, build_tower, iota, \
    projective_consistency
from choquet_tower.uncertainty import UncertaintySpace, xi

U1 = Fraction(3, 5)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _done(number: int, label: str, timer: _Timer = None, limit: float = None):
    note = ""
    if timer is not None:
        note = f" ({timer.elapsed:.3f}s < {limit}s)"
        assert timer.elapsed < limit, f"criterion {number} exceeded {limit}s"
    print(f"ACCEPTANCE {number:2d} PASS: {label}{note}")


def test_criterion_01_flat_exponent_collapse():
    with _Timer() as t:
        for variant in ("X", "Y"):
            for big_n in (1, 10, 50):
                report = ellsberg_report(
                    variant, UrnParams(big_n=big_n, alpha=1, u1=U1), 2)
                assert report.values["f1"][0] == U1 / 3
                assert report.values["f2"][0] == U1 / 3
                assert report.values["f3"][0] == 2 * U1 / 3
                assert report.values["f4"][0] == 2 * U1 / 3
                assert report.verdict == "equalities"
    _done(1, "alpha=1 collapse for X and Y at N in {1,10,50}, exact", t, 1.0)


def test_criterion_02_bent_exponent_strictness():
    with _Timer() as t:
        params = UrnParams(big_n=10, alpha=2, u1=U1)
        for variant in ("X", "Y"):
            report = ellsberg_report(variant, params, 2)
            assert report.values["f1"][0] - report.values["f2"][0] > 0
            assert report.values["f3"][0] - report.values["f4"][0] > 0
        uniform = ellsberg_report("X", params, 2)
        stated = Fraction(2, 3) * U1 * Fraction(1, 21) * sum(
            Fraction(k, 20) ** 2 for k in range(21))
        assert stated == Fraction(2, 5) * Fraction(2870, 8400)
        assert uniform.values["f2"][0] == stated
    _done(2, "alpha=2, N=10 strict orderings; uniform f2 value exact", t, 1.0)


def test_criterion_03_third_layer():
    with _Timer() as t:
        util = UtilityFunction.anchored(U1)
        for big_n in (1, 20):
            flat = UrnParams(big_n=big_n, alpha=1, u1=U1)
            report = ellsberg_report("Z", flat, 3)
            assert report.values["f2"][0] == U1 / 3
            assert report.values["f4"][0] == 2 * U1 / 3
            seq = build_sequence("Z", flat)
            family = seq.levels[1]
            acts = standard_acts(seq.base_space())
            for name in ("f2", "f4"):
                inner = value_function(seq, acts[name], 1, util)
                quad = integrate_family(
                    family,
                    lambda p: choquet_integral(family.family(p), inner))
                assert abs(quad - report.values[name][0]) <= 1e-9
            bent = ellsberg_report("Z", UrnParams(big_n=big_n, alpha=2, u1=U1), 3)
            assert bent.values["f1"][0] > bent.values["f2"][0]
            assert bent.values["f3"][0] > bent.values["f4"][0]
    _done(3, "third layer: alpha=1 exact with quadrature agreement; "
             "alpha=2 strict (N up to 20)", t, 2.0)


def test_criterion_04_beta_collapse():
    util = UtilityFunction.anchored(U1)
    for alpha in (1, 1.5, 2):
        for big_n in (1, 5):
            params = UrnParams(big_n=big_n, alpha=alpha, u1=U1)
            seq_z = build_sequence("Z", params)
            seq_x = build_sequence("X", params)
            family = seq_z.levels[1]
            for act in standard_acts(seq_z.base_space()).values():
                v3 = value_function(seq_z, act, 3, util).values[0]
                v2 = value_function(seq_x, act, 2, util).values[0]
                if isinstance(params.alpha, int):
                    assert v3 == v2
                else:
                    assert abs(v3 - v2) <= 1e-9
                inner = value_function(seq_z, act, 1, util)
                oracle = integrate_family(
                    family,
                    lambda p: choquet_integral(family.family(p), inner))
                assert abs(oracle - v3) <= 1e-9
    _done(4, "third layer under Z equals uniform second layer, "
             "with the Gauss-Legendre oracle")


def test_criterion_05_choquet_law_suite():
    with _Timer() as t:
        report = run_choquet_suite(seed=7, trials=500)
        assert report.passed, report.to_dict()
        assert all(law.trials == 500 for law in report.laws)
        assert {law.name for law in report.laws} == {
            "monotonicity", "comonotonic-additivity", "positive-homogeneity",
            "additive-linearity"}
    _done(5, "choquet law suite, 500 exact trials per law", t, 5.0)


def test_criterion_06_dirac_identities():
    space = make_space(["a", "b", "c", "d", "e"])
    for p in space.points:
        eta = dirac(space, p)
        i = space.index(p)
        for mask in space.all_masks():
            assert eta.value(mask) == (1 if mask >> i & 1 else 0)
    rng = random.Random(7)
    for _ in range(200):
        f = rand_act(rng, space)
        p = rng.choice(space.points)
        assert choquet_integral(dirac(space, p), f) == f.at(p)
    cod = make_space(["x", "y", "z"])
    for _ in range(100):
        h = rand_point_map(rng, space, cod)
        p = rng.choice(space.points)
        assert pushforward(dirac(space, p), h).equals(dirac(cod, h(p)), tol=0.0)
    _done(6, "point-mass table, evaluation, and naturality identities, exact")


def test_criterion_07_comonotonicity_counterexample():
    space = make_space(["A1", "A2", "A3"])
    us = UncertaintySpace(space, (
        ("u1", additive_capacity(space, [Fraction(1, 3)] * 3)),
        ("u2", additive_capacity(space,
                                 [Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)])),
    ))
    f, g = Act(space, (11, 1, 0)), Act(space, (11, 10, 0))
    assert are_comonotonic(f, g)
    xf, xg = xi(us, f), xi(us, g)
    d_f = xf.values[0] - xf.values[1]
    d_g = xg.values[0] - xg.values[1]
    assert d_f == Fraction(-13, 8)
    assert d_g == Fraction(1, 4)
    assert d_f * d_g == Fraction(-13, 32)
    assert not are_comonotonic(xf, xg)
    _done(7, "expectation map breaks comonotonicity with product -13/32")


def test_criterion_08_monad_laws():
    with _Timer() as t:
        tower = build_tower(FiniteSpace(("a", "b")), 2, 3)
        for level in range(tower.depth):
            assert _unit_laws(tower, level) is None
        view1 = tower.view(1)
        averaged = {name: mu(tower.view(0), cap)
                    for name, cap in view1.capacities}
        rng = random.Random(7)
        for _ in range(200):
            w = rand_additive(rng, view1.capacity_space)
            left = mu(tower.view(0), mu(tower.view(1), w))
            for mask in tower.base.all_masks():
                act = Act(view1.capacity_space, tuple(averaged[name].value(mask)
                                                      for name in view1.names))
                assert left.value(mask) == choquet_integral(w, act)
        flat = monad_counterexample(1)
        assert flat.difference == 0
        bent = monad_counterexample(2)
        assert bent.difference == Fraction(4, 9)
        assert bent.difference == bent.difference_formula
    _done(8, "unit laws on every tower point, associativity on 200 additive "
             "triples, distorted counterexample 0 and 4/9", t, 10.0)


def test_criterion_09_substitution():
    report = run_substitution_suite(seed=7, trials=500)
    assert report.passed, report.to_dict()
    assert report.laws[0].trials == 500
    _done(9, "substitution identity on 500 exact non-additive trials")


def test_criterion_10_projection_tower():
    with _Timer() as t:
        tower = build_tower(FiniteSpace(("a", "b")), 2, 3)
        for n in range(1, tower.depth + 1):
            for m in range(n, tower.depth + 1):
                up, down = iota(tower, n, m), iota(tower, m, n)
                for name, cap in tower.view(n - 1).capacities:
                    lifted = tower.find_name(m, up[name])
                    assert down[lifted].equals(cap, tol=0.0)
        for l, m, n in [(3, 2, 1), (1, 2, 3), (3, 3, 1), (1, 1, 3), (2, 2, 2)]:
            first = iota(tower, l, m)
            direct = iota(tower, l, n)
            for name in tower.space_at(l).points:
                mid = first[name]
                if l >= m >= n:
                    stepped = mid
                    for k in range(m, n, -1):
                        stepped = mu(tower.view(k - 2), stepped)
                    assert stepped.equals(direct[name], tol=0.0)
                else:
                    mid_name = tower.find_name(m, mid)
                    assert iota(tower, m, n)[mid_name].equals(direct[name],
                                                              tol=0.0)
        name, cap = tower.view(0).capacities[0]
        lifted = dirac(tower.space_at(1), name)
        assert projective_consistency(
            ProjectiveVector(tower, (cap, lifted))) == (True, None)
        table = [cap.value(mask) for mask in tower.base.all_masks()]
        bump = Fraction(1, 2)
        table[1] = table[1] + bump if table[1] + bump <= 1 else table[1] - bump
        perturbed = validate_capacity(tower.base, table)
        assert projective_consistency(
            ProjectiveVector(tower, (perturbed, lifted))) == (False, 1)
    _done(10, "retraction and monotone composition exact; perturbed "
              "vector flagged", t, 10.0)


def test_criterion_11_paradox_demo():
    flat = paradox_demo(UrnParams(big_n=5, alpha=1, u1=U1))
    assert flat.identities_hold
    assert flat.branch == "paradox not representable"
    bent = paradox_demo(UrnParams(big_n=5, alpha=2, u1=U1))
    assert bent.identities_hold
    assert bent.branch == "modal preference represented"
    _done(11, "conditional-act identities hold; report branches on alpha")
