import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import category
from choquet_tower.category import (compose_ug_maps, dirac,
                                    emb_dirac_conditions, embedding_condition,
                                    is_mp_unc_map, is_ug_map, is_unc_map,
                                    monad_counterexample, mu,
                                    substitution_check)
from choquet_tower.choquet import choquet_integral, choquet_sum
from choquet_tower.core import (Act, FiniteSpace, PointMap,
                                additive_capacity, identity_map, indicator,
                                make_space, pushforward, validate_capacity)
from choquet_tower.ellsberg import UrnParams, build_sequence, build_urn_space
from choquet_tower.hierarchy import TERMINAL, USequence
from choquet_tower.laws import (_urn_maps, rand_act, rand_capacity, rand_nonadditive,
                                rand_point_map, rand_uncertainty_space)
from choquet_tower.uncertainty import GTransform, UncertaintySpace, epsilon


def dirac_space(labels=("a", "b")):
    space = make_space(list(labels))
    caps = tuple((f"d{p}", dirac(space, p)) for p in space.points)
    return UncertaintySpace(space, caps)


class TestUncMaps:
    def test_identity_is_both(self):
        us = dirac_space()
        h = identity_map(us.base)
        assert is_unc_map(h, us, us).verdict
        assert is_mp_unc_map(h, us, us).verdict

    def test_full_support_target_dominates_everything(self):
        rng = random.Random(5)
        source = rand_uncertainty_space(rng, FiniteSpace(("a", "b", "c")))
        cod = FiniteSpace(("x", "y"))
        uniform = additive_capacity(cod, [Fraction(1, 2), Fraction(1, 2)])
        target = UncertaintySpace(cod, (("uniform", uniform),))
        h = PointMap(source.base, cod, {"a": "x", "b": "x", "c": "y"})
        witness = is_unc_map(h, source, target)
        assert witness.verdict
        assert set(witness.dominating.values()) == {"uniform"}

    def test_killed_image_fails_with_witness(self):
        dom = make_space(["a", "b"])
        cod = make_space(["c", "d"])
        source = UncertaintySpace(dom, (("u", dirac(dom, "a")),))
        v = additive_capacity(cod, [Fraction(0), Fraction(1)])
        target = UncertaintySpace(cod, (("v", v),))
        h = PointMap(dom, cod, {"a": "c", "b": "d"})
        witness = is_unc_map(h, source, target)
        assert not witness.verdict
        u_name, blockers = witness.failure
        v_name, mask = blockers[0]
        assert v.value(mask) == 0
        assert source.capacity(u_name).value(h.preimage_mask(mask)) > 0

    def test_an_unmatched_pushforward_is_the_measure_preservation_witness(self):
        target = dirac_space()
        uniform = additive_capacity(target.base, [Fraction(1, 2)] * 2)
        source = UncertaintySpace(target.base, (("uni", uniform),))
        witness = is_mp_unc_map(identity_map(target.base), source, target)
        assert not witness.verdict and witness.failure == ("uni", None)

    def test_unique_map_to_terminal_is_measure_preserving(self):
        term = TERMINAL
        for seed in range(5):
            rng = random.Random(seed)
            source = rand_uncertainty_space(rng, FiniteSpace(("a", "b", "c")))
            bang = PointMap(source.base, term.base,
                            {p: "*" for p in source.base.points})
            assert is_mp_unc_map(bang, source, term).verdict

    def test_mp_implies_dominated(self):
        for seed in range(30):
            rng = random.Random(seed)
            source = rand_uncertainty_space(rng, FiniteSpace(("a", "b", "c", "d")))
            cod = FiniteSpace(("x", "y", "z"))
            h = rand_point_map(rng, source.base, cod)
            images = {}
            for _, cap in source.capacities:
                pushed = pushforward(cap, h)
                images.setdefault(pushed, pushed)
            target = UncertaintySpace(cod, tuple(
                (f"v{i}", cap) for i, cap in enumerate(images.values())))
            assert is_mp_unc_map(h, source, target).verdict
            assert is_unc_map(h, source, target).verdict


class TestDirac:
    def test_membership_table(self):
        space = make_space(["a", "b", "c", "d"])
        for p in space.points:
            eta = dirac(space, p)
            for mask in space.all_masks():
                assert eta.value(mask) == indicator(space, mask).at(p)

    def test_integral_evaluates(self):
        space = make_space(["a", "b", "c"])
        rng = random.Random(11)
        for _ in range(25):
            f = rand_act(rng, space)
            p = rng.choice(space.points)
            assert choquet_integral(dirac(space, p), f) == f.at(p)

    def test_naturality(self):
        dom = make_space(["a", "b", "c"])
        cod = make_space(["x", "y"])
        h = PointMap(dom, cod, {"a": "y", "b": "x", "c": "y"})
        for p in dom.points:
            assert pushforward(dirac(dom, p), h).equals(dirac(cod, h(p)), tol=0.0)


class TestEmbeddingCondition:
    def test_all_point_masses(self):
        assert embedding_condition(dirac_space())

    def test_urn_fails(self):
        urn = build_urn_space(UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2)))
        assert not embedding_condition(urn)

    def test_point_masses_plus_uniform(self):
        space = make_space(["a", "b"])
        caps = (("da", dirac(space, "a")), ("db", dirac(space, "b")),
                ("uni", additive_capacity(space, [Fraction(1, 2)] * 2)))
        assert embedding_condition(UncertaintySpace(space, caps))


class TestEmbDiracConditions:
    def test_uniform_second_order_passes(self):
        source = dirac_space()
        names = source.capacity_space
        v = additive_capacity(names, [Fraction(1, 2), Fraction(1, 2)])
        second = UncertaintySpace(names, (("v", v),))
        report = emb_dirac_conditions(source, second)
        assert report.verdict
        assert set(report.chosen.values()) == {"v"}

    def test_mass_on_non_two_valued_capacity_fails_condition_one(self):
        space = make_space(["a", "b"])
        uni = additive_capacity(space, [Fraction(1, 2)] * 2)
        source = UncertaintySpace(space, (
            ("da", dirac(space, "a")), ("db", dirac(space, "b")), ("uni", uni)))
        names = source.capacity_space
        concentrated = dirac(names, "uni")
        second = UncertaintySpace(names, (("v", concentrated),))
        report = emb_dirac_conditions(source, second)
        assert not report.verdict
        for u_name, (v_name, condition, mask) in report.failures.items():
            assert condition == 1

    def test_empty_subset_semantics(self):
        source = dirac_space()
        names = source.capacity_space
        second = UncertaintySpace(
            names, (("v", additive_capacity(names, [Fraction(1, 2)] * 2)),))
        report = emb_dirac_conditions(source, second)
        assert report.verdict  # empty set: (3) vacuous, (2) asks for v(full)=1>0

    def test_requires_embedding_condition(self):
        urn = build_urn_space(UrnParams(big_n=1, alpha=1, u1=Fraction(1, 2)))
        names = urn.capacity_space
        second = UncertaintySpace(
            names, (("v", additive_capacity(names, [Fraction(1, 3)] * 3)),))
        with pytest.raises(ValueError):
            emb_dirac_conditions(urn, second)

    @pytest.mark.parametrize("first, failure", [("da", ("db", ("v", 2, 1))),
                                                ("db", ("da", ("v", 3, 1)))])
    def test_a_point_mass_second_order_fails_the_other_point(self, first, failure):
        # v sits on one point mass: on A = {a} it charges no w with w(A) = 0
        # when it sits on da (condition 2 fails for db, which charges b), and
        # none with w(A) = 1 when it sits on db (condition 3 fails for da)
        source = dirac_space()
        names = source.capacity_space
        second = UncertaintySpace(names, (("v", dirac(names, first)),))
        report = emb_dirac_conditions(source, second)
        assert not report.verdict
        assert report.failures == dict([failure])
        assert report.chosen == {first: "v", failure[0]: None}

    def test_requires_a_second_order_space_over_the_capacity_list(self):
        foreign = make_space(["x", "y"])
        second = UncertaintySpace(foreign, (("v", dirac(foreign, "x")),))
        with pytest.raises(ValueError, match="must live over the capacity list"):
            emb_dirac_conditions(dirac_space(), second)


class TestMu:
    def test_weighted_point_masses(self):
        us = dirac_space()
        v = additive_capacity(us.capacity_space, [Fraction(3, 10), Fraction(7, 10)])
        averaged = mu(us, v)
        assert averaged(us.base.subset(["a"])) == Fraction(3, 10)
        assert averaged.is_additive

    def test_unit_law_point_mass_over_capacities(self):
        rng = random.Random(3)
        us = rand_uncertainty_space(rng, FiniteSpace(("a", "b", "c")))
        for name, cap in us.capacities:
            eta = dirac(us.capacity_space, name)
            assert mu(us, eta).equals(cap, tol=0.0)

    def test_unit_law_lifted_points(self):
        space = make_space(["a", "b"])
        uni = additive_capacity(space, [Fraction(1, 2)] * 2)
        us = UncertaintySpace(space, (
            ("da", dirac(space, "a")), ("db", dirac(space, "b")), ("uni", uni)))
        lift = PointMap(space, us.capacity_space, {"a": "da", "b": "db"})
        for _, cap in us.capacities:
            assert mu(us, pushforward(cap, lift)).equals(cap, tol=0.0)

    def test_naturality(self):
        for seed in range(20):
            rng = random.Random(seed)
            source = rand_uncertainty_space(rng, FiniteSpace(("a", "b", "c")))
            cod = FiniteSpace(("x", "y"))
            h = rand_point_map(rng, source.base, cod)
            images = {}
            names = []
            for name, cap in source.capacities:
                pushed = pushforward(cap, h)
                if pushed not in images:
                    images[pushed] = (f"v{len(images)}", pushed)
                names.append((name, images[pushed][0]))
            target = UncertaintySpace(cod, tuple(images.values()))
            sh = PointMap(source.capacity_space, target.capacity_space,
                          dict(names))
            v = rand_capacity(rng, source.capacity_space)
            left = pushforward(mu(source, v), h)
            right = mu(target, pushforward(v, sh))
            assert left.equals(right, tol=0.0)

    def test_evaluation_act_pullback(self):
        # evaluation of B after the capacity-level map equals evaluation of
        # the preimage of B
        source = dirac_space(("a", "b", "c"))
        cod = FiniteSpace(("x", "y"))
        h = PointMap(source.base, cod, {"a": "x", "b": "y", "c": "y"})
        images = {}
        names = []
        for name, cap in source.capacities:
            pushed = pushforward(cap, h)
            if pushed not in images:
                images[pushed] = (f"v{len(images)}", pushed)
            names.append((name, images[pushed][0]))
        target = UncertaintySpace(cod, tuple(images.values()))
        sh = PointMap(source.capacity_space, target.capacity_space, dict(names))
        for mask in cod.all_masks():
            pulled = Act(source.capacity_space,
                         tuple(epsilon(target, mask).at(sh(name))
                               for name in source.names))
            assert pulled == epsilon(source, h.preimage_mask(mask))


class TestSubstitution:
    def test_identity_and_constant(self):
        space = make_space(["a", "b", "c"])
        u = rand_nonadditive(random.Random(2), space)
        f = Act(space, (Fraction(2), Fraction(0), Fraction(-1)))
        assert substitution_check(u, identity_map(space), f)
        cod = make_space(["z"])
        const = PointMap(space, cod, {p: "z" for p in space.points})
        assert substitution_check(u, const, Act(cod, (Fraction(5),)))

    def test_random_instances(self):
        dom = FiniteSpace(("a", "b", "c", "d"))
        cod = FiniteSpace(("x", "y", "z"))
        for seed in range(100):
            rng = random.Random(seed)
            u = rand_nonadditive(rng, dom)
            h = rand_point_map(rng, dom, cod)
            f = rand_act(rng, cod)
            assert substitution_check(u, h, f)


class TestMonadCounterexample:
    def test_flat_distortion_vanishes(self):
        result = monad_counterexample(1)
        assert result.difference == 0
        assert result.difference == result.difference_formula

    def test_square_distortion(self):
        result = monad_counterexample(2)
        assert result.difference == Fraction(4, 9)

    def test_first_principles_match_closed_forms(self):
        for beta in (1, 2, 3):
            result = monad_counterexample(beta)
            assert result.lhs == result.lhs_closed
            assert result.rhs == result.rhs_closed
            assert result.difference == result.difference_formula

    def test_float_exponent(self):
        result = monad_counterexample(1.5)
        assert abs(result.lhs - result.lhs_closed) < 1e-9
        assert result.difference > 0

    def test_counts_reported(self):
        result = monad_counterexample(2)
        assert result.printed_count == 3 and result.actual_count == 10

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            monad_counterexample(0.5)


def _drawn():
    # the test acts of a map check: each is_ug_map call draws afresh from seed 0
    return partial(rand_act, random.Random(0))


class TestUgMaps:
    def test_identity(self):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq = build_sequence("X", params)
        urn = seq.levels[0]
        phi = [{p: p for p in urn.base.points},
               {name: name for name, _ in urn.capacities},
               {"vu": "vu"}]
        assert is_ug_map(phi, seq, seq, GTransform.linear(1), _drawn()).verdict
        assert is_ug_map(phi, seq, seq, GTransform.entropic(1.0), _drawn()).verdict

    def test_binomial_inclusion_at_midpoint(self):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq_y = build_sequence("Y", params)
        seq_z = build_sequence("Z", params)
        urn = seq_y.levels[0]
        family = seq_z.levels[1]
        phi = [{p: p for p in urn.base.points},
               {name: name for name, _ in urn.capacities},
               {"vb": family.family(Fraction(1, 2))}]
        assert is_ug_map(phi, seq_y, seq_z, GTransform.linear(1), _drawn()).verdict

    def test_wrong_target_detected(self):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq_y = build_sequence("Y", params)
        seq_z = build_sequence("Z", params)
        urn = seq_y.levels[0]
        family = seq_z.levels[1]
        phi = [{p: p for p in urn.base.points},
               {name: name for name, _ in urn.capacities},
               {"vb": family.family(Fraction(1, 4))}]
        witness = is_ug_map(phi, seq_y, seq_z, GTransform.linear(1), _drawn())
        assert not witness.verdict

    @pytest.mark.parametrize("variant", ["X", "Z"])
    def test_unknown_target_name_rejected(self, variant):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq_y = build_sequence("Y", params)
        urn = seq_y.levels[0]
        phi = [{p: p for p in urn.base.points},
               {name: name for name, _ in urn.capacities},
               {"vb": "vb"}]  # X names its weighting "vu"; Z's family has no names
        with pytest.raises(ValueError, match="no capacity named 'vb'"):
            is_ug_map(phi, seq_y, build_sequence(variant, params),
                      GTransform.linear(1), _drawn())

    @pytest.mark.parametrize("levels, fragment", [
        (1, "need at least two levels of maps"),
        (3, "family levels are not supported on the source side"),
    ], ids=["one map", "family source"])
    def test_refuses_maps_it_cannot_check(self, levels, fragment):
        # the identity on Z: its urn level commutes, so a third map reaches
        # the family level
        seq = build_sequence("Z", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)))
        urn = seq.levels[0]
        phi = [{p: p for p in urn.base.points}, {name: name for name in urn.names}, {}]
        with pytest.raises(ValueError, match=fragment):
            is_ug_map(phi[:levels], seq, seq, GTransform.linear(1), _drawn())

    def test_the_source_side_is_one_xi_per_level_and_test_act(self, monkeypatch):
        # each level's 2**n indicators and 50 drawn acts are integrated
        # against all source capacities at once
        seq = build_sequence("X", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)))
        urn, weights, _ = seq.levels
        calls = []
        real = category.xi

        def counted(us, f):
            calls.append(us)
            return real(us, f)

        monkeypatch.setattr(category, "xi", counted)
        phi = [{p: p for p in urn.base.points}, {name: name for name in urn.names},
               {"vu": "vu"}]
        assert is_ug_map(phi, seq, seq, GTransform.linear(1), _drawn()).verdict
        assert calls == [urn] * 58 + [weights] * 58
        # past its last level a sequence is TERMINAL, whose one point is
        # "*": a level whose one capacity is named "*" maps onto it
        space = make_space(["a", "b"])
        one = UncertaintySpace(space, (("*", dirac(space, "a")),))
        calls.clear()
        phi = [{"a": "a", "b": "b"}, {"*": "*"}, {"*": "*"}]
        assert is_ug_map(phi, USequence((one,)), USequence((one,)),
                         GTransform.linear(1), _drawn()).verdict
        assert calls == [one] * 54 + [TERMINAL] * 52

    def test_a_failure_witness_replays_on_the_failing_capacity(self):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq_y, seq_z = build_sequence("Y", params), build_sequence("Z", params)
        urn = seq_y.levels[0]
        image = seq_z.levels[1].family(Fraction(1, 4))
        phi = [{p: p for p in urn.base.points}, {name: name for name in urn.names},
               {"vb": image}]
        witness = is_ug_map(phi, seq_y, seq_z, GTransform.linear(1), _drawn())
        level, name, values, lhs, rhs = witness.failure
        f = Act(seq_y.levels[level].base, values)
        assert (level, name) == (1, "vb") and lhs != rhs
        assert lhs == choquet_integral(seq_y.levels[1].capacity(name), f)
        assert rhs == choquet_integral(image, f)

    @staticmethod
    def _closing_first(weight):
        # a source of one level, then TERMINAL, into a target whose level 0
        # holds the point masses t1 at x and t2 at y, and whose level 1 weighs
        # them by `weight`, named "w"
        a, base = make_space(["a"]), make_space(["x", "y"])
        source = USequence((UncertaintySpace(a, (("s", dirac(a, "a")),)), TERMINAL))
        level0 = UncertaintySpace(base, (("t1", dirac(base, "x")), ("t2", dirac(base, "y"))))
        names = level0.capacity_space
        return source, USequence((level0, UncertaintySpace(names, (("w", weight(names)),))))

    def test_a_terminal_source_point_goes_where_its_capacity_goes(self):
        # "*" stands for s, which goes to t1: the unit mass over "*" must
        # become the point mass at t1
        phi = [{"a": "x"}, {"s": "t1"}, {"*": "w"}]
        source, target = self._closing_first(lambda names: dirac(names, "t1"))
        assert is_ug_map(phi, source, target, GTransform.linear(1), _drawn()).verdict

    def test_a_terminal_source_point_fails_under_the_wrong_weight(self):
        phi = [{"a": "x"}, {"s": "t1"}, {"*": "w"}]
        uniform = lambda names: additive_capacity(names, form=([1, 1], 2))  # noqa: E731
        source, target = self._closing_first(uniform)
        witness = is_ug_map(phi, source, target, GTransform.linear(1), _drawn())
        level, name, values, lhs, rhs = witness.failure
        assert not witness.verdict and (level, name) == (1, "*")
        # the unit mass at "*" reads the act at t1; the uniform weight averages it
        assert lhs == values[0] and rhs == (values[0] + values[1]) / 2 and lhs != rhs

    def test_a_terminal_source_point_needs_one_image(self):
        # level 0 reads s's image alone; at level 1 "*" would have two
        phi = [{"a": "x"}, {"s": "t1", "r": "t2"}, {"*": "w"}]
        source, target = self._closing_first(lambda names: dirac(names, "t1"))
        with pytest.raises(ValueError, match="the terminal point needs one image, got 2"):
            is_ug_map(phi, source, target, GTransform.linear(1), _drawn())

    def test_the_identity_on_x_reaches_its_terminal_level(self):
        # four maps check X's urn, weight and terminal levels; into TERMINAL
        # every image is "*"
        seq = build_sequence("X", UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5)))
        phi = _urn_maps(seq.levels[0], {"vu": "vu"}) + [{"*": "*"}]
        assert seq.levels[2] is TERMINAL
        assert is_ug_map(phi, seq, seq, GTransform.linear(1), _drawn()).verdict
        assert is_ug_map(phi, seq, seq, GTransform.entropic(1.0), _drawn()).verdict

    def test_composition(self):
        params = UrnParams(big_n=1, alpha=2, u1=Fraction(3, 5))
        seq_y = build_sequence("Y", params)
        seq_z = build_sequence("Z", params)
        urn = seq_y.levels[0]
        family = seq_z.levels[1]
        ident = [{p: p for p in urn.base.points},
                 {name: name for name, _ in urn.capacities},
                 {"vb": "vb"}]
        incl = [{p: p for p in urn.base.points},
                {name: name for name, _ in urn.capacities},
                {"vb": family.family(Fraction(1, 2))}]
        composed = compose_ug_maps(ident, incl)
        assert is_ug_map(composed, seq_y, seq_z, GTransform.linear(1), _drawn()).verdict


class TestAssociativityWitness:
    def test_additive_second_order_commutes(self):
        # additive second-order capacities average the same either way
        us = dirac_space(("a", "b"))
        names = us.capacity_space
        rng = random.Random(9)
        for _ in range(20):
            weights = [rng.randint(1, 5) for _ in names.points]
            total = sum(weights)
            v = additive_capacity(names, [Fraction(w, total) for w in weights])
            averaged = mu(us, v)
            for mask in us.base.all_masks():
                direct = choquet_integral(v, epsilon(us, mask))
                assert averaged.value(mask) == direct


@st.composite
def additive_averaging(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    space = FiniteSpace(tuple("abcde"[:n]))
    mass_lists = st.lists(st.integers(min_value=0, max_value=6),
                          min_size=n, max_size=n).filter(any)
    caps = {}
    for weights in draw(st.lists(mass_lists, min_size=1, max_size=6)):
        cap = additive_capacity(space, [Fraction(w, sum(weights)) for w in weights])
        caps.setdefault(cap, cap)
    us = UncertaintySpace(space, tuple(
        (f"c{j}", cap) for j, cap in enumerate(caps.values())))
    v_weights = draw(st.lists(st.integers(min_value=0, max_value=6),
                              min_size=len(caps), max_size=len(caps)).filter(any))
    v = additive_capacity(us.capacity_space,
                          [Fraction(w, sum(v_weights)) for w in v_weights])
    return us, v


@given(additive_averaging())
@settings(max_examples=100)
def test_mass_path_mu_matches_dense_definition(data):
    us, v = data
    averaged = mu(us, v)
    assert averaged._masses is not None
    dense = validate_capacity(us.base, [choquet_sum(v.value, epsilon(us, mask))
                                        for mask in us.base.all_masks()])
    assert averaged.equals(dense, tol=0.0)
    assert averaged == dense and hash(averaged) == hash(dense)
