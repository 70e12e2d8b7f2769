import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower.choquet import (ChainDecomposition, NotComonotonicError,
                                   are_comonotonic, chain_act, choquet_integral, choquet_sum,
                                   common_chain, decompose,
                                   upper_level_distribution)
from choquet_tower.core import (Act, Capacity, FiniteSpace, additive_capacity,
                                constant_act, indicator, is_exact, make_space,
                                validate_capacity)


def thirds_space():
    space = make_space(["R", "B", "Y"])
    return space, additive_capacity(space, [Fraction(1, 3)] * 3)


def riemann_integral(table, values, steps=8_000_000):
    """Brute-force evaluation of the defining improper integral.

    Upper-level sets are recomputed per grid node from scratch (float
    midpoint rule), independent of the telescoping-sum implementation.
    """
    values = np.asarray([float(v) for v in values])
    lo = min(0.0, values.min()) - 0.25
    hi = max(0.0, values.max()) + 0.25
    total = 0.0
    for chunk in np.array_split(np.linspace(lo, hi, steps, endpoint=False), 8):
        r = chunk + (hi - lo) / steps / 2.0
        masks = np.zeros(len(r), dtype=np.int64)
        for i, v in enumerate(values):
            masks |= (v >= r).astype(np.int64) << i
        vals = np.asarray([float(table[m]) for m in range(len(table))])[masks]
        vals = np.where(r < 0, vals - 1.0, vals)
        total += vals.sum() * (hi - lo) / steps
    return total


class TestDecompose:
    def test_distinct_values_make_singleton_blocks(self):
        space, _ = thirds_space()
        chain = decompose(Act(space, (11, 1, 0)))
        assert chain.values == (11, 1, 0)
        assert all(mask.bit_count() == 1 for mask, _ in chain.blocks)

    def test_constant_is_one_block(self):
        space, _ = thirds_space()
        chain = decompose(constant_act(space, Fraction(7, 2)))
        assert chain.blocks == ((space.full_mask, Fraction(7, 2)),)

    def test_equal_values_share_blocks(self):
        space = make_space(["p1", "p2", "p3"])
        chain = decompose(Act(space, (5, 5, 2)))
        assert chain.blocks == ((space.mask(["p1", "p2"]), 5),
                                (space.mask(["p3"]), 2))

    def test_reconstruction(self):
        space = make_space(["a", "b", "c", "d"])
        act = Act(space, (Fraction(3), Fraction(-1), Fraction(3), Fraction(0)))
        assert decompose(act).reconstruct() == act


class TestUpperLevelDistribution:
    def test_above_max(self):
        space, u = thirds_space()
        assert upper_level_distribution(u, Act(space, (11, 1, 0)), 12) == 0

    def test_below_min_and_negative(self):
        space, u = thirds_space()
        assert upper_level_distribution(u, Act(space, (11, 1, 0)), -1) == 0

    def test_interior_threshold(self):
        space, u = thirds_space()
        assert upper_level_distribution(u, Act(space, (11, 1, 0)), 2) == Fraction(1, 3)


class TestChoquetIntegral:
    def test_indicator_recovers_capacity(self):
        space = make_space(["a", "b", "c"])
        table = [Fraction(0) for m in space.all_masks()]
        for m in space.all_masks():
            table[m] = Fraction(m.bit_count(), 3) ** 2 if m else Fraction(0)
        table[space.full_mask] = Fraction(1)
        u = validate_capacity(space, table)
        for mask in space.all_masks():
            assert choquet_integral(u, indicator(space, mask)) == u.value(mask)

    def test_constant(self):
        space, u = thirds_space()
        assert choquet_integral(u, constant_act(space, Fraction(5, 3))) == Fraction(5, 3)

    def test_worked_example(self):
        space, u = thirds_space()
        assert choquet_integral(u, Act(space, (11, 1, 0))) == 4

    def test_negative_constant_single_point(self):
        space = make_space(["x"])
        u = additive_capacity(space, [Fraction(1)])
        assert choquet_integral(u, Act(space, (-2,))) == -2

    def test_matches_riemann_oracle(self):
        space = make_space(["a", "b", "c"])
        table = [0, 0.2, 0.3, 0.6, 0.1, 0.5, 0.4, 1.0]
        table[0b110] = 0.6  # keep the table monotone
        u = validate_capacity(space, table)
        for values in [(2.5, -1.0, 0.5), (-0.75, -2.0, 3.0), (1.0, 1.0, -1.5)]:
            act = Act(space, values)
            exact = choquet_integral(u, act)
            assert abs(exact - riemann_integral(table, values)) < 1e-6

    def test_tie_break_independent_of_permutation(self):
        space = make_space(["a", "b", "c", "d"])
        table = [Fraction(min(m.bit_count(), 3), 3) for m in space.all_masks()]
        u = validate_capacity(space, table)
        base = (Fraction(2), Fraction(2), Fraction(-1), Fraction(2))
        results = {choquet_integral(u, Act(space, perm))
                   for perm in itertools.permutations(base)}
        # symmetric capacity: every permutation integrates identically
        assert len(results) == 1


class TestComonotonic:
    def test_constant_with_anything(self):
        space, _ = thirds_space()
        f = Act(space, (Fraction(4), Fraction(-2), Fraction(0)))
        assert are_comonotonic(f, constant_act(space, Fraction(9)))

    def test_worked_pair(self):
        space, _ = thirds_space()
        assert are_comonotonic(Act(space, (11, 1, 0)), Act(space, (11, 10, 0)))

    def test_disjoint_indicators_are_not(self):
        space = make_space(["a", "b"])
        assert not are_comonotonic(indicator(space, space.subset(["a"])),
                                   indicator(space, space.subset(["b"])))


class TestCommonChain:
    def test_worked_pair(self):
        space = make_space(["A1", "A2", "A3"])
        cf, cg = common_chain(Act(space, (11, 1, 0)), Act(space, (11, 10, 0)))
        assert [m for m, _ in cf.blocks] == [m for m, _ in cg.blocks]
        assert cf.values == (11, 1, 0)
        assert cg.values == (11, 10, 0)

    def test_equal_acts(self):
        space = make_space(["a", "b"])
        f = Act(space, (Fraction(1), Fraction(2)))
        cf, cg = common_chain(f, f)
        assert cf == cg

    def test_rejects_noncomonotonic(self):
        space = make_space(["a", "b"])
        with pytest.raises(NotComonotonicError):
            common_chain(Act(space, (1, 0)), Act(space, (0, 1)))


def test_nonadditive_capacity_is_not_linear():
    space = make_space(["a", "b"])
    table = [Fraction(0), Fraction(1, 10), Fraction(1, 10), Fraction(1)]
    u = validate_capacity(space, table)
    one_a = indicator(space, space.subset(["a"]))
    one_b = indicator(space, space.subset(["b"]))
    assert not are_comonotonic(one_a, one_b)
    parts = choquet_integral(u, one_a) + choquet_integral(u, one_b)
    whole = choquet_integral(u, one_a + one_b)
    assert parts == Fraction(1, 5) and whole == 1 and parts != whole


LABELS = "abcdef"


@st.composite
def space_capacity_acts(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    space = FiniteSpace(tuple(LABELS[:n]))
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        best = Fraction(draw(st.integers(min_value=0, max_value=10)), 10)
        for i in range(n):
            if mask >> i & 1 and table[mask ^ (1 << i)] > best:
                best = table[mask ^ (1 << i)]
        table[mask] = best
    table[-1] = Fraction(1)
    u = Capacity(space, table=tuple(table))
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    f = Act(space, tuple(draw(fracs) for _ in range(n)))
    bumps = Act(space, tuple(abs(draw(fracs)) for _ in range(n)))
    return space, u, f, bumps


@given(space_capacity_acts())
@settings(max_examples=80)
def test_monotonicity_property(data):
    _, u, f, bumps = data
    assert choquet_integral(u, f + bumps) >= choquet_integral(u, f)


@given(space_capacity_acts(),
       st.fractions(min_value="1/8", max_value=9, max_denominator=8))
@settings(max_examples=80)
def test_positive_homogeneity_property(data, lam):
    _, u, f, _ = data
    assert choquet_integral(u, f.scale(lam)) == lam * choquet_integral(u, f)


@given(space_capacity_acts(), st.data())
@settings(max_examples=80)
def test_comonotonic_additivity_property(data, payload):
    space, u, _, _ = data
    n = len(space)
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    pieces = sorted(payload.draw(st.lists(fracs, min_size=n, max_size=n)),
                    reverse=True)
    other = sorted(payload.draw(st.lists(fracs, min_size=n, max_size=n)),
                   reverse=True)
    blocks = [1 << i for i in range(n)]
    f = chain_act(space, tuple(zip(blocks, pieces)))
    g = chain_act(space, tuple(zip(blocks, other)))
    assert are_comonotonic(f, g)
    assert choquet_integral(u, f + g) == \
        choquet_integral(u, f) + choquet_integral(u, g)


@st.composite
def mass_capacity_acts(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    weights = draw(st.lists(st.integers(min_value=0, max_value=9),
                            min_size=n, max_size=n).filter(any))
    u = additive_capacity(space, [Fraction(w, sum(weights)) for w in weights])
    # few distinct values, so blocks of several points occur
    values = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        st.floats(min_value=-4, max_value=4, allow_nan=False))
    pool = draw(st.lists(values, min_size=1, max_size=n))
    f = Act(space, tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    return u, f


@given(mass_capacity_acts())
@settings(max_examples=150)
def test_mass_path_matches_telescoping_sum(data):
    u, f = data
    assert u._masses is not None
    got = choquet_integral(u, f)
    want = choquet_sum(u.value, f)
    assert got == want and is_exact(got) == is_exact(want)


@pytest.mark.parametrize("blocks, fragment", [
    (((0b011, 2), (0b110, 1)), "blocks must be non-empty and disjoint"),
    (((0b011, 2), (0, 1), (0b100, 0)), "blocks must be non-empty and disjoint"),
    (((0b001, 1), (0b110, 2)), "block values must be non-increasing"),
    (((0b001, 2), (0b010, 1)), "blocks must cover the space"),
], ids=["overlapping", "empty", "increasing", "not covering"])
def test_a_chain_refuses_blocks_that_do_not_partition_the_space_in_order(blocks, fragment):
    with pytest.raises(ValueError, match=fragment):
        ChainDecomposition(make_space(["R", "B", "Y"]), blocks)
