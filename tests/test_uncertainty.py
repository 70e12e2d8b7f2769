import math
from fractions import Fraction

import pytest

from choquet_tower.category import dirac
from choquet_tower.choquet import are_comonotonic
from choquet_tower.core import (Act, DuplicateLabelError, Subset, indicator,
                                additive_capacity, make_space,
                                validate_capacity)
from choquet_tower.ellsberg import UrnParams, build_urn_space
from choquet_tower.uncertainty import (GTransform, UncertaintySpace,
                                       check_separated, epsilon, xi, xi_g)


def comono_example():
    """Two additive capacities and the comonotonic pair whose expectations are not."""
    space = make_space(["A1", "A2", "A3"])
    u1 = additive_capacity(space, [Fraction(1, 3)] * 3)
    u2 = additive_capacity(space, [Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)])
    us = UncertaintySpace(space, (("u1", u1), ("u2", u2)))
    f = Act(space, (11, 1, 0))
    g = Act(space, (11, 10, 0))
    return us, f, g


class TestEpsilon:
    def test_full_and_empty(self):
        us, _, _ = comono_example()
        assert epsilon(us, Subset(us.base, us.base.full_mask)).values == (1, 1)
        assert epsilon(us, Subset(us.base, 0)).values == (0, 0)

    def test_urn_blue_odds(self):
        urn = build_urn_space(UrnParams(big_n=1, alpha=1, u1=Fraction(3, 5)))
        act = epsilon(urn, urn.base.subset(["B"]))
        assert act.values == (0, Fraction(1, 3), Fraction(2, 3))


def test_capacity_by_name():
    us, _, _ = comono_example()
    assert us.capacity("u2") is us.capacities[1][1]
    urn = build_urn_space(UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)))
    assert urn.capacity("u2") is urn.capacities[2][1]
    for space in (us, urn):
        with pytest.raises(KeyError):
            space.capacity("nope")


class TestXi:
    def test_indicators_give_evaluation(self):
        us, _, _ = comono_example()
        for mask in us.base.all_masks():
            assert xi(us, indicator(us.base, mask)) == epsilon(us, mask)

    def test_worked_values_and_comonotonicity_loss(self):
        us, f, g = comono_example()
        xf, xg = xi(us, f), xi(us, g)
        assert xf.values == (4, Fraction(45, 8))
        d_f = xf.values[0] - xf.values[1]
        d_g = xg.values[0] - xg.values[1]
        assert (d_f, d_g) == (Fraction(-13, 8), Fraction(1, 4))
        assert d_f * d_g == Fraction(-13, 32)
        assert are_comonotonic(f, g) and not are_comonotonic(xf, xg)

    def test_point_mass_evaluates(self):
        space = make_space(["a", "b", "c"])
        us = UncertaintySpace(space, tuple(
            (f"d{p}", dirac(space, p)) for p in space.points))
        f = Act(space, (Fraction(3), Fraction(-1), Fraction(1, 2)))
        assert xi(us, f).values == f.values

    def test_inherits_choquet_properties(self):
        us, f, g = comono_example()
        lam = Fraction(7, 3)
        assert xi(us, f.scale(lam)) == xi(us, f).scale(lam)
        assert xi(us, f + g) == xi(us, f) + xi(us, g)  # comonotonic pair
        bumped = f + Act(f.space, (1, 1, 2))
        assert all(a >= b for a, b in zip(xi(us, bumped).values, xi(us, f).values))


class TestXiG:
    def test_linear_is_plain_xi(self):
        us, f, _ = comono_example()
        assert xi_g(us, f, GTransform.linear(Fraction(7, 2))) == xi(us, f)

    def test_entropic_formula(self):
        space = make_space(["a", "b"])
        table = [Fraction(0), Fraction(6, 10), Fraction(1, 10), Fraction(1)]
        u = validate_capacity(space, table)
        us = UncertaintySpace(space, (("u", u),))
        out = xi_g(us, Act(space, (0, 1)), GTransform.entropic(1.0))
        expected = math.log(0.1 * (math.e - 1.0) + 1.0)
        assert abs(out.values[0] - expected) < 1e-9
        assert abs(expected - 0.1586) < 5e-5

    def test_constant_fixed_point(self):
        us, _, _ = comono_example()
        for g in (GTransform.entropic(0.5), GTransform.linear(3)):
            out = xi_g(us, Act(us.base, (Fraction(2), Fraction(2), Fraction(2))), g)
            assert all(abs(v - 2) < 1e-9 for v in out.values)

    def test_overflow_guard(self):
        us, _, _ = comono_example()
        with pytest.raises(OverflowError):
            xi_g(us, Act(us.base, (1000, 0, 0)), GTransform.entropic(1.0))

    def test_entropic_translation_covariance_additive(self):
        space = make_space(["a", "b", "c"])
        us = UncertaintySpace(space, (
            ("p", additive_capacity(space, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])),
            ("q", additive_capacity(space, [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)])),
        ))
        g = GTransform.entropic(1.25)
        f = Act(space, (Fraction(1, 2), Fraction(-1), Fraction(2)))
        shifted = xi_g(us, f.map(lambda v: v + Fraction(3, 4)), g)
        base = xi_g(us, f, g)
        for a, b in zip(shifted.values, base.values):
            assert abs(a - (b + 0.75)) < 1e-9


class TestCheckSeparated:
    def test_urn_capacities_distinct(self):
        urn = build_urn_space(UrnParams(big_n=2, alpha=1, u1=Fraction(1, 2)))
        ok, witness = check_separated(urn)
        assert ok and witness is None

    def test_repeated_capacity_found(self):
        space = make_space(["a", "b"])
        u = additive_capacity(space, [Fraction(1, 2), Fraction(1, 2)])
        v = validate_capacity(space, [0, Fraction(1, 2), Fraction(1, 2), 1])
        ok, witness = check_separated([("u", u), ("v", v)])
        assert not ok and witness == ("u", "v")
        with pytest.raises(DuplicateLabelError):
            UncertaintySpace(space, (("u", u), ("v", v)))

    def test_singleton_list(self):
        space = make_space(["a", "b"])
        u = additive_capacity(space, [Fraction(1), Fraction(0)])
        assert check_separated([("u", u)]) == (True, None)


def test_gtransform_rejects_non_inverse():
    with pytest.raises(ValueError):
        GTransform(lambda t: t + 1, lambda s: s + 1)


@pytest.mark.parametrize("make, parameter, fragment", [
    (GTransform.linear, 0, "linear transform needs a positive slope"),
    (GTransform.linear, Fraction(-1, 2), "linear transform needs a positive slope"),
    (GTransform.entropic, 0.0, "entropic transform needs lambda > 0"),
    (GTransform.entropic, -1.0, "entropic transform needs lambda > 0"),
], ids=["linear 0", "linear negative", "entropic 0", "entropic negative"])
def test_gtransform_needs_a_positive_parameter(make, parameter, fragment):
    with pytest.raises(ValueError, match=fragment):
        make(parameter)


def test_xi_contracts_sup_norm():
    us, f, g = comono_example()
    for act in (f, g, f - g.scale(Fraction(5, 2))):
        assert xi(us, act).sup_norm <= act.sup_norm
