from fractions import Fraction

import pytest

from choquet_tower.core import Act, Capacity, FiniteSpace, Subset, additive_capacity, \
    indicator, make_space
from choquet_tower.ellsberg import UrnParams, build_sequence, standard_acts
from choquet_tower.hierarchy import (TERMINAL, FamilyLevel, LayerError,
                                     USequence, UtilityFunction,
                                     conditional_act, integrate_family,
                                     value_function, xi_chain)
from choquet_tower.uncertainty import UncertaintySpace, epsilon, xi


def toy_sequence():
    """Two concrete levels: three states, two capacities, one weighting."""
    space = make_space(["a", "b", "c"])
    level0 = UncertaintySpace(space, (
        ("p", additive_capacity(space, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])),
        ("q", additive_capacity(space, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])),
    ))
    names = level0.capacity_space
    level1 = UncertaintySpace(names, (
        ("w", additive_capacity(names, [Fraction(2, 3), Fraction(1, 3)])),
    ))
    return USequence((level0, level1, TERMINAL))


class TestTerminalSpace:
    def test_evaluation(self):
        term = TERMINAL
        assert epsilon(term, Subset(term.base, term.base.full_mask)).values == (1,)
        assert epsilon(term, Subset(term.base, 0)).values == (0,)

    def test_any_act_passes_through(self):
        term = TERMINAL
        act = Act(term.base, (Fraction(-7, 2),))
        assert xi(term, act).values == (Fraction(-7, 2),)

    def test_the_terminal_is_one_uncertainty_space(self):
        assert isinstance(TERMINAL, UncertaintySpace)
        assert TERMINAL.base.points == TERMINAL.names == ("*",)
        assert TERMINAL.capacity("*").value(1) == 1

    def test_the_chain_to_the_terminal_layer_lands_on_its_capacity_space(self):
        seq = toy_sequence()
        assert seq.levels[-1] is TERMINAL
        act = Act(seq.base_space(), (Fraction(1), Fraction(0), Fraction(3, 2)))
        top = xi_chain(seq, act, 0, seq.layer_count)
        assert top.space is TERMINAL.capacity_space
        assert top.values == xi_chain(seq, act, 0, seq.layer_count - 1).values

    def test_a_family_closes_on_one_weight_space_then_the_terminal(self):
        seq = build_sequence("Z", UrnParams(1, 2, Fraction(3, 5)))
        family = seq.levels[1]
        f = standard_acts(seq.base_space())["f1"]
        weight = xi_chain(seq, f, 0, 3)
        assert weight.space is family.weight_space is TestIntegrateFamily.family().weight_space
        assert weight.space.points == ("lambda",)
        assert xi_chain(seq, f, 0, 4).space is TERMINAL.capacity_space


class TestXiChain:
    def test_identity_at_equal_layers(self):
        seq = toy_sequence()
        f = Act(seq.base_space(), (1, 2, 3))
        assert xi_chain(seq, f, 0, 0) == f

    def test_single_step_is_xi(self):
        seq = toy_sequence()
        f = Act(seq.base_space(), (Fraction(1), Fraction(2), Fraction(3)))
        assert xi_chain(seq, f, 0, 1) == xi(seq.levels[0], f)

    def test_two_steps_compose(self):
        seq = toy_sequence()
        f = Act(seq.base_space(), (Fraction(3), Fraction(-1), Fraction(2)))
        assert xi_chain(seq, f, 0, 2) == xi(seq.levels[1], xi(seq.levels[0], f))

    def test_out_of_range(self):
        seq = toy_sequence()
        f = Act(seq.base_space(), (1, 2, 3))
        with pytest.raises(LayerError):
            xi_chain(seq, f, 0, 9)


class TestValueFunction:
    def test_layer_zero_is_utility_composition(self):
        seq = toy_sequence()
        util = UtilityFunction.anchored(Fraction(3, 5))
        f = Act(seq.base_space(), (Fraction(1), Fraction(0), Fraction(1)))
        assert value_function(seq, f, 0, util) == f.map(util)

    def test_binary_act_first_layer(self):
        seq = toy_sequence()
        util = UtilityFunction.anchored(Fraction(3, 5))
        f = indicator(seq.base_space(), seq.base_space().subset(["a", "c"]))
        v1 = value_function(seq, f, 1, util)
        winners = epsilon(seq.levels[0], seq.base_space().subset(["a", "c"]))
        assert v1 == winners.scale(util.u1)

    def test_recursion_consistency(self):
        seq = toy_sequence()
        util = UtilityFunction.anchored(Fraction(3, 5))
        f = Act(seq.base_space(), (Fraction(1), Fraction(1, 2), Fraction(0)))
        for n in (1, 2):
            assert value_function(seq, f, n, util) == \
                xi(seq.levels[n - 1], value_function(seq, f, n - 1, util))

    def test_terminal_absorption(self):
        seq = toy_sequence()
        extended = USequence(seq.levels + (TERMINAL,))
        util = UtilityFunction.anchored(Fraction(1, 2))
        f = Act(seq.base_space(), (Fraction(1), Fraction(0), Fraction(1, 2)))
        for n in (1, 2):
            assert value_function(seq, f, n, util) == \
                value_function(extended, f, n, util)
        assert value_function(extended, f, 3, util).values == \
            value_function(extended, f, 2, util).values

    def test_ellsberg_uniform_red_bet(self):
        for alpha in (1, 2, 1.5):
            seq = build_sequence("X", UrnParams(big_n=2, alpha=alpha, u1=Fraction(3, 5)))
            util = UtilityFunction.anchored(Fraction(3, 5))
            f1 = standard_acts(seq.base_space())["f1"]
            assert value_function(seq, f1, 2, util).values == (Fraction(1, 5),)


class TestConditionalAct:
    def test_full_and_empty(self):
        space = make_space(["a", "b"])
        f = Act(space, (Fraction(1), Fraction(2)))
        g = Act(space, (Fraction(3), Fraction(4)))
        assert conditional_act(Subset(space, space.full_mask), f, g) == f
        assert conditional_act(Subset(space, 0), f, g) == g

    def test_urn_identity(self):
        space = make_space(["R", "B", "Y"])
        acts = standard_acts(space)
        one = Act(space, (1, 1, 1))
        assert conditional_act(space.subset(["R", "B"]), acts["f1"], one) == acts["f4"]


class TestIntegrateFamily:
    @staticmethod
    def family(level_size=3, two_n=2):
        base = FiniteSpace(tuple(f"u{k}" for k in range(level_size)))

        def member(p):
            from math import comb
            q = 1 - p
            return Capacity(base, masses=tuple(
                comb(two_n, k) * p ** k * q ** (two_n - k)
                for k in range(two_n + 1)))

        return FamilyLevel(base=base, family=member, binomial_n=two_n)

    def test_constant_functional(self):
        level = self.family()
        assert abs(integrate_family(level, lambda p: 2.5) - 2.5) < 1e-12

    def test_single_mass_moment(self):
        level = self.family()
        for k in range(3):
            got = integrate_family(level,
                                   lambda p, k=k: level.family(p).value(1 << k))
            assert abs(got - Fraction(1, 3)) < 1e-9

    def test_act_path_is_exact_mean(self):
        level = self.family()
        act = Act(level.base, (Fraction(1), Fraction(5), Fraction(9)))
        assert integrate_family(level, act=act) == Fraction(5)

    def test_act_path_matches_quadrature(self):
        level = self.family()
        act = Act(level.base, (Fraction(1, 3), Fraction(2), Fraction(-1)))
        exact = integrate_family(level, act=act)
        from choquet_tower.choquet import choquet_integral
        quad = integrate_family(level,
                                lambda p: choquet_integral(level.family(p), act))
        assert abs(exact - quad) < 1e-9

    def test_non_additive_member_is_caught_when_integrated(self):
        base = FiniteSpace(("a", "b"))

        def member(p):  # additive except near p = 0.3
            if abs(p - Fraction(3, 10)) < Fraction(1, 20):
                return Capacity(base, table=(0, 0, 0, 1))
            return Capacity(base, masses=(p, 1 - p))

        level = FamilyLevel(base=base, family=member)
        with pytest.raises(ValueError, match="not additive"):
            integrate_family(level, act=Act(base, (Fraction(1), Fraction(0))))

    def test_oscillatory_integrand_fails_refinement(self):
        import math

        from choquet_tower.hierarchy import QuadratureError

        level = self.family()
        with pytest.raises(QuadratureError):
            integrate_family(level, lambda p: math.sin(500.0 * p))

    def test_family_layer_not_materializable(self):
        params = UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2))
        seq = build_sequence("Z", params)
        util = UtilityFunction.anchored(Fraction(1, 2))
        f = standard_acts(seq.base_space())["f2"]
        with pytest.raises(LayerError):
            value_function(seq, f, 2, util)
        out = value_function(seq, f, 3, util)
        assert out.values == (Fraction(1, 6),)


class TestBetaCollapse:
    def test_third_layer_equals_uniform_second_layer(self):
        util_anchor = Fraction(3, 5)
        util = UtilityFunction.anchored(util_anchor)
        for alpha in (1, Fraction(3, 2), 2):
            for big_n in (1, 5):
                params = UrnParams(big_n=big_n, alpha=alpha, u1=util_anchor)
                seq_z = build_sequence("Z", params)
                seq_x = build_sequence("X", params)
                acts = standard_acts(seq_z.base_space())
                for name, act in acts.items():
                    v3 = value_function(seq_z, act, 3, util).values[0]
                    v2 = value_function(seq_x, act, 2, util).values[0]
                    if isinstance(params.alpha, int):
                        assert v3 == v2
                    else:
                        assert abs(v3 - v2) < 1e-9


class TestUtilityFunction:
    def test_exp_saturating_anchors(self):
        util = UtilityFunction.exp_saturating()
        assert util(0) == 0 and 0 < util.u1 < 1

    def test_rejects_bad_anchor(self):
        with pytest.raises(ValueError):
            UtilityFunction.anchored(Fraction(3, 2))
        with pytest.raises(ValueError):
            UtilityFunction(lambda x: x)  # fn(1) = 1 is not allowed


class TestUSequenceValidation:
    def test_linkage_enforced(self):
        space = make_space(["a", "b"])
        level0 = UncertaintySpace(space, (
            ("p", additive_capacity(space, [Fraction(1, 2), Fraction(1, 2)])),))
        wrong = UncertaintySpace(make_space(["zz"]), (
            ("w", additive_capacity(make_space(["zz"]), [Fraction(1)])),))
        with pytest.raises(ValueError):
            USequence((level0, wrong))

    def test_terminal_needs_single_capacity(self):
        space = make_space(["a", "b"])
        level0 = UncertaintySpace(space, (
            ("p", additive_capacity(space, [Fraction(1, 2), Fraction(1, 2)])),
            ("q", additive_capacity(space, [Fraction(1), Fraction(0)])),
        ))
        with pytest.raises(ValueError):
            USequence((level0, TERMINAL))


FAMILY = TestIntegrateFamily.family()

INPUT_CHECKS = {
    "family integrand phi and act": (
        lambda: integrate_family(FAMILY, lambda p: 1.0, act=Act(FAMILY.base, (1, 2, 3))),
        ValueError, "give exactly one of phi/act"),
    "family integrand neither": (lambda: integrate_family(FAMILY), ValueError,
                                 "give exactly one of phi/act"),
    "sequence starting terminal": (lambda: USequence((TERMINAL,)), ValueError,
                                   "a sequence starts with a concrete uncertainty space"),
    "empty sequence": (lambda: USequence(()), ValueError,
                       "a sequence starts with a concrete uncertainty space"),
    "level after a family": (
        lambda: USequence(build_sequence("Z", UrnParams(1, 1, Fraction(1, 2))).levels[:2] * 2),
        ValueError, "a family level closes the sequence"),
    "level after the terminal": (lambda: USequence(toy_sequence().levels * 2), ValueError,
                                 "levels after the terminal space stay terminal"),
    "entry that is not a level": (
        lambda: USequence((toy_sequence().levels[0], "junk")), ValueError,
        "a sequence entry is an uncertainty space or a family level, not str"),
    "many-point act at the terminal": (
        lambda: xi_chain(toy_sequence(), Act(make_space(["x", "y"]), (1, 2)), 2, 3),
        LayerError, "terminal level expects a one-point act"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_an_input_check_refuses_with_its_message(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
