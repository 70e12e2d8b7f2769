"""Gauss-Legendre nodes from a Newton iteration on the Legendre recurrence,
checked against numpy's ``leggauss``, which the package itself does not
import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.polynomial.legendre import leggauss

import choquet_tower
from choquet_tower import hierarchy
from choquet_tower.ellsberg import UrnParams, binomial_family, build_urn_space

PACKAGE = Path(choquet_tower.__file__).resolve().parent


#: every rule up to 129 nodes, past the largest one the quadrature tests ask for
CHECKED = range(1, 130)


def test_the_checked_rules_hold_the_largest_one_requested(monkeypatch):
    # the largest binomial family the quadrature tests integrate has N = 20
    requested = []
    rule = hierarchy._gauss_legendre_01
    monkeypatch.setattr(hierarchy, "_gauss_legendre_01",
                        lambda n: requested.append(n) or rule(n))
    urn = build_urn_space(UrnParams(big_n=20, alpha=1, u1=0.5))
    hierarchy.integrate_family(binomial_family(urn, 20), lambda p: 1.0)
    assert requested == [21, 42] and max(requested) in CHECKED


@pytest.mark.parametrize("n", CHECKED)
def test_nodes_match_numpy_on_the_unit_interval(n):
    xs, ws = hierarchy._gauss_legendre_01(n)
    ref_xs, ref_ws = leggauss(n)
    assert len(xs) == len(ws) == n
    assert max(abs(x - (r + 1) / 2) for x, r in zip(xs, ref_xs)) <= 1e-13
    assert max(abs(w - r / 2) for w, r in zip(ws, ref_ws)) <= 1e-13
    assert abs(math.fsum(ws) - 1) <= 1e-13
    assert 0 < xs[0] and xs[-1] < 1
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_quadrature_matches_the_exact_path_without_numpy():
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from fractions import Fraction\n"
        "from choquet_tower.choquet import choquet_integral\n"
        "from choquet_tower.core import Act\n"
        "from choquet_tower.ellsberg import (UrnParams, binomial_family,\n"
        "                                    build_urn_space)\n"
        "from choquet_tower.hierarchy import integrate_family\n"
        "urn = build_urn_space(UrnParams(big_n=5, alpha=2, u1=Fraction(3, 5)))\n"
        "family = binomial_family(urn, 5)\n"
        "act = Act(family.base, tuple(Fraction(k * k - 7, 3) for k in range(11)))\n"
        "exact = integrate_family(family, act=act)\n"
        "quad = integrate_family(family,\n"
        "                        lambda p: choquet_integral(family.member(p), act))\n"
        "print(repr(float(abs(quad - exact))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert float(out) <= 1e-9
