"""The one-capacity tower projection, ``iota`` built on it, and the
retraction suite's laws that call it."""

import pytest

from choquet_tower import laws, tower as tower_module
from choquet_tower.category import dirac, mu
from choquet_tower.core import FiniteSpace, additive_capacity
from choquet_tower.tower import build_tower, iota, project


@pytest.fixture(scope="module", params=[(2, 3), (3, 3)], ids=["grid2", "grid3"])
def tower(request):
    grid, depth = request.param
    return build_tower(FiniteSpace(("a", "b")), grid, depth)


def _oracle(t, name, m, n):
    """The image of the level-m point ``name`` at level n, step by step:
    averaging the grid capacity down, or lifting the point mass of its
    name up and looking the lift up on the grid."""
    if m >= n:
        cap = t.view(m - 1).capacity(name)
        for k in range(m, n, -1):
            cap = mu(t.view(k - 2), cap)
        return cap
    for k in range(m, n):
        name = t.find_name(k + 1, dirac(t.space_at(k), name))
        assert name is not None
    return t.view(n - 1).capacity(name)


def test_iota_is_the_projection_for_every_pair_of_levels(tower):
    for m in range(1, tower.depth + 1):
        for n in range(1, tower.depth + 1):
            mapped = iota(tower, m, n)
            points = tower.view(m - 1).capacities
            assert list(mapped) == [name for name, _ in points]
            # the largest level is sampled for the oracle, not walked whole
            for name, cap in points[::max(1, len(points) // 60)]:
                image = project(tower, cap, m, n)
                assert image.equals(_oracle(tower, name, m, n), tol=0.0)
                assert mapped[name] == image


def test_composition_law_meets_a_descent_off_the_grid():
    t = build_tower(FiniteSpace(("a", "b")), 2, 3)
    off_grid = [(l, m, n, name)
                for l in range(1, 4) for m in range(1, l) for n in range(1, m)
                for name, cap in t.view(l - 1).capacities
                if t.find_name(m, project(t, cap, l, m)) is None]
    assert off_grid
    for l, m, n, name in off_grid:
        cap = t.view(l - 1).capacity(name)
        assert (project(t, project(t, cap, l, m), m, n)
                == project(t, cap, l, n) == _oracle(t, name, l, n))


def _swapped_mu(us, v):
    # the true average with its first two masses exchanged
    masses = list(mu(us, v).singleton_masses())
    masses[0], masses[1] = masses[1], masses[0]
    return additive_capacity(us.base, masses)


def test_a_perturbed_average_fails_the_retraction_suite(monkeypatch):
    assert laws.run_retraction_suite(2, 3, 2, 7).passed
    monkeypatch.setattr(tower_module, "mu", _swapped_mu)
    report = laws.run_retraction_suite(2, 3, 2, 7)
    assert not report.passed
    retraction = report.laws[0]
    assert retraction.name == "retraction" and retraction.failures == 1
    assert retraction.first_failure.startswith("retraction ")
    composition = report.laws[1]
    assert composition.name == "monotone-composition" and composition.failures == 1
    assert composition.first_failure.startswith("composition ")
