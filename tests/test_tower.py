from fractions import Fraction

import pytest

from choquet_tower.category import dirac, mu
from choquet_tower.core import Capacity, FiniteSpace, validate_capacity
from choquet_tower.laws import rand_additive, rand_capacity
from choquet_tower.tower import (ProjectiveVector, TowerSizeError,
                                 build_tower, iota, projective_consistency)
import random
import time


@pytest.fixture(scope="module")
def tower():
    return build_tower(FiniteSpace(("a", "b")), 2, 3)


class TestBuildTower:
    def test_level_sizes(self, tower):
        assert [len(tower.space_at(k)) for k in range(tower.depth + 1)] == [2, 3, 6, 21]

    def test_first_level_masses(self, tower):
        masses = [cap.singleton_masses() for _, cap in tower.view(0).capacities]
        assert masses == [(Fraction(0), Fraction(1)),
                          (Fraction(1, 2), Fraction(1, 2)),
                          (Fraction(1), Fraction(0))]

    def test_unit_grid_gives_point_masses(self):
        t = build_tower(FiniteSpace(("a", "b", "c")), 1, 2)
        level1 = [cap for _, cap in t.view(0).capacities]
        assert len(level1) == 3
        assert all(any(cap.equals(dirac(t.base, p), tol=0.0)
                       for p in t.base.points) for cap in level1)

    def test_guards(self):
        with pytest.raises(TowerSizeError):
            build_tower(FiniteSpace(("a", "b", "c", "d")), 2, 2)
        with pytest.raises(TowerSizeError):
            build_tower(FiniteSpace(("a", "b")), 5, 2)

    def test_level_cap_checked_before_enumerating(self):
        # the third level would hold 1 798 940 capacities
        start = time.perf_counter()
        with pytest.raises(TowerSizeError):
            build_tower(FiniteSpace(("a", "b", "c")), 3, 3)
        assert time.perf_counter() - start < 1.0

    def test_point_mass_average_on_a_large_level(self):
        # level 3 of the grid-3 tower has 1540 points over a 20-point level 2,
        # beyond the dense-table cap; averaging stays in mass space
        big = build_tower(FiniteSpace(("a", "b")), 3, 3)
        assert len(big.space_at(3)) == 1540
        for name, cap in big.view(2).capacities[::97]:
            averaged = mu(big.view(2), dirac(big.space_at(3), name))
            assert averaged._masses is not None
            assert averaged.equals(cap, tol=0.0)
            assert big.find_name(3, averaged) == name


def _linear_name(tower, level, cap):
    """The find_name oracle: the first grid capacity equal to cap, by scan."""
    return next((name for name, grid_cap in tower.view(level - 1).capacities
                 if grid_cap == cap), None)


def _candidates(rng, tower, level, grid_caps):
    # grid points in both forms, then mixtures and draws that may leave the grid
    space = tower.space_at(level - 1)
    for cap in grid_caps:
        yield cap
        if len(space) <= 8:
            yield validate_capacity(space, [cap.value(m) for m in space.all_masks()])
    for _ in range(len(grid_caps)):
        a, b = rng.choice(grid_caps), rng.choice(grid_caps)
        yield Capacity(space, masses=tuple((x + y) / 2 for x, y in
                                           zip(a.singleton_masses(), b.singleton_masses())))
        yield rand_additive(rng, space)
    if len(space) <= 8:
        yield rand_capacity(rng, space)


class TestViews:
    def test_views_are_built_once(self, tower):
        for k in range(tower.depth):
            assert tower.view(k) is tower.view(k)
        with pytest.raises(IndexError, match=r"^views lie in 0\.\.2, not 3 \(level 4\)$"):
            tower.view(tower.depth)
        with pytest.raises(IndexError, match=r"^views lie in 0\.\.2, not -1 \(level 0\)$"):
            tower.view(-1)

    def test_a_level_outside_the_tower_names_the_range_and_the_level(self, tower):
        # space_at and find_name reach level k through view k - 1, whose
        # one range check names the level they were given
        with pytest.raises(IndexError, match=r"^views lie in 0\.\.2, not 3 \(level 4\)$"):
            tower.space_at(tower.depth + 1)
        point = tower.view(0).capacities[0][1]
        with pytest.raises(IndexError, match=r"^views lie in 0\.\.2, not -1 \(level 0\)$"):
            tower.find_name(0, point)
        assert tower.space_at(tower.depth) is tower.view(tower.depth - 1).capacity_space

    def test_find_name_matches_a_linear_scan(self, tower):
        rng = random.Random(3)
        for level in range(1, tower.depth + 1):
            grid_caps = [cap for _, cap in tower.view(level - 1).capacities]
            hits = misses = 0
            for cap in _candidates(rng, tower, level, grid_caps):
                expected = _linear_name(tower, level, cap)
                assert tower.find_name(level, cap) == expected
                hits += expected is not None
                misses += expected is None
            assert hits >= len(grid_caps) and misses > 0
            for name, cap in tower.view(level - 1).capacities:
                assert tower.view(level - 1).capacity(name) is cap

    def test_find_name_on_a_sample_of_the_large_level(self):
        big = build_tower(FiniteSpace(("a", "b")), 3, 3)
        rng = random.Random(8)
        sample = [cap for _, cap in rng.sample(big.view(2).capacities, 25)]
        for cap in _candidates(rng, big, 3, sample):
            assert big.find_name(3, cap) == _linear_name(big, 3, cap)


class TestIota:
    def test_identity(self, tower):
        for level in (1, 2, 3):
            mapped = iota(tower, level, level)
            for name, cap in tower.view(level - 1).capacities:
                assert mapped[name] is cap

    def test_retraction(self, tower):
        for n in range(1, 4):
            for m in range(n, 4):
                up = iota(tower, n, m)
                down = iota(tower, m, n)
                for name, cap in tower.view(n - 1).capacities:
                    lifted = tower.find_name(m, up[name])
                    assert lifted is not None
                    assert down[lifted].equals(cap, tol=0.0)

    def test_monotone_composition_descending(self, tower):
        direct = iota(tower, 3, 1)
        step = iota(tower, 3, 2)
        for name in tower.space_at(3).points:
            mid = step[name]
            pushed = mu(tower.view(0), mid)
            assert pushed.equals(direct[name], tol=0.0)

    def test_monotone_composition_ascending(self, tower):
        lift12 = iota(tower, 1, 2)
        lift23 = iota(tower, 2, 3)
        lift13 = iota(tower, 1, 3)
        for name in tower.space_at(1).points:
            mid_name = tower.find_name(2, lift12[name])
            assert lift23[mid_name].equals(lift13[name], tol=0.0)

    def test_descended_averages_may_leave_grid(self, tower):
        down = iota(tower, 2, 1)
        off_grid = [name for name, cap in down.items()
                    if tower.find_name(1, cap) is None]
        assert off_grid  # the half/half mixture of mixtures is off the 1/2 grid

    def test_level_range_checked(self, tower):
        with pytest.raises(ValueError):
            iota(tower, 0, 1)
        with pytest.raises(ValueError):
            iota(tower, 1, 4)


class TestProjectiveConsistency:
    def test_point_mass_chain(self, tower):
        name, cap = tower.view(0).capacities[1]
        vec = ProjectiveVector(tower, (cap, dirac(tower.space_at(1), name)))
        assert projective_consistency(vec) == (True, None)

    def test_double_point_mass_chain(self, tower):
        base_point = tower.base.points[0]
        u1 = dirac(tower.base, base_point)
        name1 = tower.find_name(1, u1)
        u2 = dirac(tower.space_at(1), name1)
        name2 = tower.find_name(2, u2)
        u3 = dirac(tower.space_at(2), name2)
        vec = ProjectiveVector(tower, (u1, u2, u3))
        assert projective_consistency(vec) == (True, None)

    def test_perturbation_flagged(self, tower):
        name, cap = tower.view(0).capacities[0]
        lifted = dirac(tower.space_at(1), name)
        table = [cap.value(mask) for mask in tower.base.all_masks()]
        bump = Fraction(1, tower.grid)
        table[1] = table[1] + bump if table[1] + bump <= 1 else table[1] - bump
        perturbed = validate_capacity(tower.base, table)
        vec = ProjectiveVector(tower, (perturbed, lifted))
        assert projective_consistency(vec) == (False, 1)

    def test_misaligned_vector_rejected(self, tower):
        name, cap = tower.view(0).capacities[0]
        with pytest.raises(ValueError):
            ProjectiveVector(tower, (cap, cap))

    @pytest.mark.parametrize("length", [0, 4], ids=["empty", "past the depth"])
    def test_a_vector_longer_than_the_tower_or_empty_is_rejected(self, tower, length):
        u1 = dirac(tower.base, tower.base.points[0])
        with pytest.raises(ValueError, match="vector length must fit the tower depth"):
            ProjectiveVector(tower, (u1,) * length)


def test_averaging_keeps_additivity(tower):
    rng = random.Random(21)
    for _ in range(30):
        second = rand_additive(rng, tower.space_at(1))
        averaged = mu(tower.view(0), second)
        assert averaged.is_additive
