import math
from fractions import Fraction

import pytest

from choquet_tower import ellsberg
from choquet_tower.core import MonotonicityError
from choquet_tower.ellsberg import (UrnParams, binomial_family, build_sequence,
                                    build_urn_space, closed_form_values,
                                    ellsberg_report, paradox_demo)


#: the refusal of each p outside [0, 1] at N = 2, by repr of p
NEGATIVE_MASS = {
    "Fraction(3, 2)": "negative mass -3/4 at 'u1'",
    "-0.5": "negative mass -6.75 at 'u1'",
    "1.5": "negative mass -0.75 at 'u1'",
    "2": "negative mass -8 at 'u1'",
    "Fraction(-1, 3)": "negative mass -256/81 at 'u1'",
}


class TestUrnParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            UrnParams(big_n=0, alpha=1, u1=Fraction(1, 2))
        with pytest.raises(ValueError):
            UrnParams(big_n=1, alpha=Fraction(1, 2), u1=Fraction(1, 2))
        with pytest.raises(ValueError):
            UrnParams(big_n=1, alpha=1, u1=Fraction(3, 2))

    def test_integral_float_exponent_goes_exact(self):
        params = UrnParams(big_n=1, alpha=2.0, u1=Fraction(3, 5))
        assert params.alpha == 2 and isinstance(params.alpha, int)


class TestBuildUrnSpace:
    def test_additive_iff_flat_exponent(self):
        flat = build_urn_space(UrnParams(big_n=2, alpha=1, u1=Fraction(1, 2)))
        assert all(cap.is_additive for _, cap in flat.capacities)

    def test_bent_blue_odds(self):
        urn = build_urn_space(UrnParams(big_n=1, alpha=2, u1=Fraction(1, 2)))
        u1 = urn.capacity("u1")
        assert u1(urn.base.subset(["B"])) == Fraction(1, 6)

    def test_interior_capacities_subadditive(self):
        urn = build_urn_space(UrnParams(big_n=2, alpha=2, u1=Fraction(1, 2)))
        base = urn.base
        for k in (1, 2, 3):
            cap = urn.capacity(f"u{k}")
            parts = sum(cap(base.subset([c])) for c in "RBY")
            assert parts < 1
            assert not cap.is_additive


class TestBuildSequence:
    def test_uniform_weights(self):
        seq = build_sequence("X", UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2)))
        weights = seq.levels[1].capacity("vu")
        assert weights.singleton_masses() == (Fraction(1, 3),) * 3

    def test_binomial_weights(self):
        seq = build_sequence("Y", UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2)))
        weights = seq.levels[1].capacity("vb")
        assert weights.singleton_masses() == (Fraction(1, 4), Fraction(1, 2),
                                              Fraction(1, 4))

    def test_family_midpoint_matches_binomial(self):
        params = UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2))
        family = build_sequence("Z", params).levels[1]
        binom = build_sequence("Y", params).levels[1].capacity("vb")
        assert family.family(Fraction(1, 2)).equals(binom, tol=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_sequence("Q", UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2)))

    def test_family_builds_members_only_on_demand(self, monkeypatch):
        urn = build_urn_space(UrnParams(big_n=3, alpha=2, u1=Fraction(1, 2)))
        built = []
        real = ellsberg.additive_capacity
        monkeypatch.setattr(ellsberg, "additive_capacity",
                            lambda *args, **kw: built.append(args) or real(*args, **kw))
        family = binomial_family(urn, 3)
        assert built == []
        family.member(Fraction(1, 2))
        assert len(built) == 1

    @pytest.mark.parametrize("p", [Fraction(3, 2), -0.5, 1.5, 2, Fraction(-1, 3)])
    def test_family_refuses_a_parameter_outside_the_unit_interval(self, p):
        family = binomial_family(build_urn_space(UrnParams(2, 2, Fraction(1, 2))), 2)
        with pytest.raises(MonotonicityError) as err:
            family.member(p)
        # the first negative mass, in p's own arithmetic
        assert str(err.value) == NEGATIVE_MASS[repr(p)] and err.value.witness == (0, 2)


def integer_member(two_n, p):
    """The binomial(2N, p) masses of an exact p = a/b on integers alone, by
    the binomial theorem: C(2N, k) a^k (b-a)^(2N-k) over b^(2N), brought to
    lowest terms by one gcd."""
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    nums = [math.comb(two_n, k) * a ** k * (b - a) ** (two_n - k) for k in range(two_n + 1)]
    g = math.gcd(b ** two_n, *nums)
    return [n // g for n in nums], b ** two_n // g


class TestBinomialMember:
    @pytest.mark.parametrize("big_n", range(1, 13))
    def test_an_exact_member_has_the_integer_builders_form(self, big_n):
        family = binomial_family(build_urn_space(UrnParams(big_n, 1, Fraction(1, 2))), big_n)
        for p in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), 1):
            assert family.member(p).exact_form == integer_member(2 * big_n, p)

    @pytest.mark.parametrize("p, masses", [
        (0.3, ["0x1.ebb98c7e2823fp-3", "0x1.a57a786c2267fp-2", "0x1.0ef34d6a161e5p-2",
               "0x1.35a858793dd97p-4", "0x1.096bb98c7e282p-7"]),
        (0.5, ["0x1.0000000000000p-4", "0x1.0000000000000p-2", "0x1.8000000000000p-2",
               "0x1.0000000000000p-2", "0x1.0000000000000p-4"]),
        (0.9, ["0x1.a36e2eb1c4326p-14", "0x1.d7dbf487fcb8dp-9", "0x1.8e219652bd3c0p-5",
               "0x1.2a9930be0ded2p-2", "0x1.4fec56d5cfaadp-1"]),
    ])
    def test_a_float_member_keeps_its_float_masses_bit_for_bit(self, p, masses):
        family = binomial_family(build_urn_space(UrnParams(2, 1, Fraction(1, 2))), 2)
        member = family.member(p)
        assert member.exact_form is None
        assert [m.hex() for m in member.singleton_masses()] == masses


class TestEllsbergReport:
    def test_flat_exponent_equalities(self):
        report = ellsberg_report("X", UrnParams(big_n=10, alpha=1, u1=Fraction(3, 5)), 2)
        values = {name: vals[0] for name, vals in report.values.items()}
        assert values == {"f1": Fraction(1, 5), "f2": Fraction(1, 5),
                          "f3": Fraction(2, 5), "f4": Fraction(2, 5)}
        assert report.verdict == "equalities"
        assert not report.paradox_represented

    def test_bent_uniform(self):
        report = ellsberg_report("X", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)), 2)
        assert report.values["f2"][0] == Fraction(1, 6)
        assert report.values["f1"][0] == Fraction(1, 5)
        assert report.verdict == "supports modal preference"

    def test_bent_binomial(self):
        report = ellsberg_report("Y", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)), 2)
        assert report.values["f2"][0] == Fraction(3, 20)

    def test_bent_third_layer(self):
        report = ellsberg_report("Z", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)), 3)
        assert report.values["f2"][0] == Fraction(1, 6)
        assert report.values["f4"][0] == Fraction(11, 30)
        assert report.verdict == "supports modal preference"

    def test_red_bets_never_depend_on_exponent(self):
        for variant, layer in (("X", 2), ("Y", 2), ("Z", 3)):
            for alpha in (1, Fraction(7, 4), 3):
                params = UrnParams(big_n=2, alpha=alpha, u1=Fraction(3, 5))
                report = ellsberg_report(variant, params, layer)
                assert report.values["f1"][0] == Fraction(1, 5)
                assert report.values["f3"][0] == Fraction(2, 5)

    def test_flat_exponent_collapses_everywhere(self):
        for variant, layer in (("X", 2), ("Y", 2), ("Z", 3)):
            params = UrnParams(big_n=3, alpha=1, u1=Fraction(2, 7))
            report = ellsberg_report(variant, params, layer)
            u1 = Fraction(2, 7)
            assert report.values["f2"][0] == u1 / 3
            assert report.values["f4"][0] == 2 * u1 / 3

    def test_strictness_for_bent_exponents(self):
        for variant, layer in (("X", 2), ("Y", 2), ("Z", 3)):
            for alpha in (Fraction(3, 2), 2):
                params = UrnParams(big_n=2, alpha=alpha, u1=Fraction(3, 5))
                report = ellsberg_report(variant, params, layer)
                assert report.values["f1"][0] > report.values["f2"][0]
                assert report.values["f3"][0] > report.values["f4"][0]

    def test_layer_one_values(self):
        params = UrnParams(big_n=1, alpha=1, u1=Fraction(3, 5))
        report = ellsberg_report("X", params, 1)
        assert report.point_labels == ("u0", "u1", "u2")
        assert report.values["f2"] == (0, Fraction(1, 5), Fraction(2, 5))
        assert report.f1_vs_f2 == "incomparable"

    def test_layer_variant_mismatch(self):
        params = UrnParams(big_n=1, alpha=1, u1=Fraction(3, 5))
        with pytest.raises(ValueError):
            ellsberg_report("X", params, 3)
        with pytest.raises(ValueError):
            ellsberg_report("Z", params, 2)

    @pytest.mark.parametrize("call, fragment", [
        (lambda params: closed_form_values("X", params, 3),
         "no closed form for variant X at layer 3"),
        (lambda params: closed_form_values("Z", params, 2),
         "no closed form for variant Z at layer 2"),
        (lambda params: ellsberg_report("Q", params, 2), "unknown variant 'Q'"),
    ], ids=["closed form X at 3", "closed form Z at 2", "report of variant Q"])
    def test_refuses_what_it_has_no_value_for(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call(UrnParams(big_n=1, alpha=1, u1=Fraction(3, 5)))

    def test_closed_forms_agree_for_float_exponent(self):
        params = UrnParams(big_n=2, alpha=1.7, u1=0.6)
        report = ellsberg_report("X", params, 2)
        closed = closed_form_values("X", params, 2)
        for name in ("f1", "f2", "f3", "f4"):
            assert abs(report.values[name][0] - closed[name]) < 1e-9


class TestParadoxDemo:
    def test_identities_always_hold(self):
        demo = paradox_demo(UrnParams(big_n=3, alpha=2, u1=Fraction(1, 2)))
        assert demo.identities_hold
        names = [name for name, _ in demo.identities]
        assert "(RB; f1, 1) = f4" in names and "(RB; f2, 1) = f3" in names

    def test_flat_branch(self):
        demo = paradox_demo(UrnParams(big_n=2, alpha=1, u1=Fraction(1, 2)))
        assert demo.branch == "paradox not representable"

    def test_bent_branch(self):
        demo = paradox_demo(UrnParams(big_n=2, alpha=2, u1=Fraction(1, 2)))
        assert demo.branch == "modal preference represented"
