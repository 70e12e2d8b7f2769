import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_tower import laws
from choquet_tower.choquet import choquet_integral
from choquet_tower.core import (MAX_EXACT_EXPONENT, Act, Capacity,
                                DuplicateLabelError, EmptySpaceError,
                                EndpointError, FiniteSpace,
                                MonotonicityError, NormalizationError,
                                PointMap, SpaceMismatchError, Subset,
                                TooManyPointsError, additive_capacity,
                                distort, exponent, identity_map, indicator,
                                make_space, precompose_act, pushforward,
                                validate_capacity)
from choquet_tower.uncertainty import UncertaintySpace, epsilon


def thirds(space):
    return additive_capacity(space, [Fraction(1, 3)] * 3)


def full_table(space, values_by_labels):
    by_mask = {space.mask(labels): v for labels, v in values_by_labels.items()}
    return [by_mask[m] for m in space.all_masks()]


class TestMakeSpace:
    def test_powerset_size(self):
        space = make_space(["R", "B", "Y"])
        assert len(list(space.all_masks())) == 8

    def test_empty_rejected(self):
        with pytest.raises(EmptySpaceError):
            make_space([])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateLabelError):
            make_space(["a", "a"])

    def test_no_63_point_cap(self):
        assert len(make_space([f"p{i}" for i in range(64)])) == 64
        space = make_space([f"p{i}" for i in range(100)])
        u = additive_capacity(space, [Fraction(1, 100)] * 100)
        f = Act(space, tuple(range(100)))
        assert choquet_integral(u, f) == Fraction(99, 2)
        with pytest.raises(TooManyPointsError):
            space.all_masks()  # dense tables keep their 20-point cap


class TestIndicator:
    def test_empty_and_full(self):
        space = make_space(["R", "B", "Y"])
        assert indicator(space, Subset(space, 0)).values == (0, 0, 0)
        assert indicator(space, Subset(space, space.full_mask)).values == (1, 1, 1)

    def test_single_point(self):
        space = make_space(["R", "B", "Y"])
        act = indicator(space, space.subset(["R"]))
        assert act.at("B") == 0 and act.at("R") == 1

    def test_foreign_subset(self):
        space = make_space(["R", "B", "Y"])
        other = make_space(["a", "b"])
        with pytest.raises(SpaceMismatchError):
            indicator(space, other.subset(["a"]))


class TestPrecompose:
    def test_identity(self):
        space = make_space(["x", "y"])
        f = Act(space, (Fraction(2), Fraction(-1)))
        assert precompose_act(f, identity_map(space)) == f

    def test_constant_map(self):
        dom = make_space(["a", "b", "c"])
        cod = make_space(["x", "y"])
        h = PointMap(dom, cod, {p: "y" for p in dom.points})
        f = Act(cod, (Fraction(5), Fraction(7)))
        assert precompose_act(f, h).values == (7, 7, 7)

    def test_indicator_pulls_back_to_preimage(self):
        dom = make_space(["a", "b", "c"])
        cod = make_space(["x", "y"])
        h = PointMap(dom, cod, {"a": "x", "b": "y", "c": "x"})
        pulled = precompose_act(indicator(cod, cod.subset(["x"])), h)
        assert pulled == indicator(dom, Subset(dom, h.preimage_mask(
            cod.mask(["x"]))))
        assert pulled.values == (1, 0, 1)

    def test_partial_map_rejected(self):
        dom = make_space(["a", "b"])
        cod = make_space(["x"])
        with pytest.raises(SpaceMismatchError):
            PointMap(dom, cod, {"a": "x"})


class TestPointMap:
    def test_a_later_change_to_the_callers_dict_changes_nothing(self):
        dom, cod = make_space(["a", "b"]), make_space(["x", "y"])
        given = {"a": "x", "b": "y"}
        h = PointMap(dom, cod, given)
        given["a"] = "nowhere"
        given["b"] = "x"
        assert h("a") == "x" and h("b") == "y"
        assert h.mapping == {"a": "x", "b": "y"}
        assert h == PointMap(dom, cod, {"b": "y", "a": "x"})

    def test_drawn_maps_agree_with_the_per_label_definition(self):
        for seed in range(200):
            rng = random.Random(seed)
            dom, cod, end = (laws.rand_space(rng, 5) for _ in range(3))
            # the labels each map draws, read again from a copy of its stream
            state = rng.getstate()
            h, g = laws.rand_point_map(rng, dom, cod), laws.rand_point_map(rng, cod, end)
            rng.setstate(state)
            to = {p: cod.points[rng.randrange(len(cod))] for p in dom.points}
            after = {q: end.points[rng.randrange(len(end))] for q in cod.points}
            assert h.mapping == to and list(h.mapping) == list(dom.points)

            def preimage(mask):
                return sum(1 << i for i, p in enumerate(dom.points)
                           if mask >> cod.points.index(to[p]) & 1)

            assert h.preimage_masks == [preimage(m) for m in cod.all_masks()]
            assert all(h.preimage_mask(m) == preimage(m) for m in cod.all_masks())
            for u in (laws.rand_capacity(rng, dom), laws.rand_additive(rng, dom)):
                pushed = pushforward(u, h)
                assert [pushed.value(m) for m in cod.all_masks()] == [
                    u.value(preimage(m)) for m in cod.all_masks()]
            f = laws.rand_act(rng, cod)
            assert precompose_act(f, h).values == tuple(f.at(to[p]) for p in dom.points)
            assert h.then(g).mapping == {p: after[to[p]] for p in dom.points}


class TestValidateCapacity:
    def test_additive_thirds(self):
        space = make_space(["A1", "A2", "A3"])
        u = additive_capacity(space, {p: Fraction(1, 3) for p in space.points})
        assert u.is_additive
        assert u(space.subset(["A1", "A2"])) == Fraction(2, 3)

    def test_bad_normalization(self):
        space = make_space(["a", "b"])
        table = full_table(space, {(): 0, ("a",): Fraction(1, 2),
                                   ("b",): Fraction(1, 2),
                                   ("a", "b"): Fraction(9, 10)})
        with pytest.raises(NormalizationError):
            validate_capacity(space, table)

    def test_monotonicity_witness(self):
        space = make_space(["a", "b", "c"])
        table = [Fraction(1) for mask in space.all_masks()]
        table[0] = Fraction(0)
        table[space.mask(["a"])] = Fraction(6, 10)
        table[space.mask(["a", "b"])] = Fraction(5, 10)
        with pytest.raises(MonotonicityError) as err:
            validate_capacity(space, table)
        assert err.value.witness == (space.mask(["a"]), space.mask(["a", "b"]))

    def test_first_cover_pair_is_the_witness(self):
        # one violation deep in a 14-point table: a 13-point set sits below
        # its 12-point subsets; the failing cover pair is reported without
        # a scan over all subset pairs
        space = make_space([f"p{i}" for i in range(14)])
        table = [Fraction(mask.bit_count(), 14) for mask in space.all_masks()]
        table[space.full_mask >> 1] = Fraction(11, 14)
        start = time.perf_counter()
        with pytest.raises(MonotonicityError) as err:
            validate_capacity(space, table)
        assert time.perf_counter() - start < 2.0
        small, large = err.value.witness
        assert small & large == small and small != large
        assert table[small] > table[large]

    def test_incomplete_table_rejected(self):
        space = make_space(["a", "b"])
        with pytest.raises(SpaceMismatchError):
            validate_capacity(space, [0, 1])


class TestExponent:
    def test_whole_exponents_become_ints(self):
        for whole in (3, 3.0, Fraction(6, 2), MAX_EXACT_EXPONENT):
            assert exponent(whole, "alpha") == int(whole)
            assert type(exponent(whole, "alpha")) is int

    def test_other_exponents_are_kept(self):
        assert exponent(Fraction(3, 2), "beta") == Fraction(3, 2)
        assert exponent(2.5, "beta") == 2.5

    @pytest.mark.parametrize("x,message", [
        (Fraction(1, 2), "need alpha >= 1"),
        (MAX_EXACT_EXPONENT + 1, "whole alpha must be at most"),
        (1e300, "whole alpha must be at most"),
        (Fraction(10 ** 400) + Fraction(1, 2), "alpha is too large for a float"),
    ])
    def test_refused_before_any_power(self, x, message):
        with pytest.raises(ValueError, match=message):
            exponent(x, "alpha")


class TestDistort:
    def test_identity_distortion(self):
        space = make_space(["a", "b", "c"])
        u = thirds(space)
        assert distort(u, lambda t: t).equals(u, tol=0.0)

    def test_square_on_two_points(self):
        space = make_space(["a", "b"])
        u = additive_capacity(space, [Fraction(1, 2), Fraction(1, 2)])
        v = distort(u, lambda t: t * t)
        assert v(space.subset(["a"])) == Fraction(1, 4)

    def test_endpoint_violation(self):
        space = make_space(["a", "b"])
        u = additive_capacity(space, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(EndpointError):
            distort(u, lambda t: t / 2 + Fraction(1, 10))

    @pytest.mark.parametrize("masses", [
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), (0.25, 0.25, 0.5)])
    def test_float_images_compare_within_tolerance(self, masses):
        # h(1) is 0.9999999999999999; the images, not the input, are floats
        space = make_space(["a", "b", "c"])
        v = distort(additive_capacity(space, masses),
                    lambda t: sum([float(t) / 10] * 10))
        assert v.value(space.full_mask) == sum([0.1] * 10)

    def test_square_breaks_additivity(self):
        space = make_space(["a", "b", "c"])
        v = distort(thirds(space), lambda t: t * t)
        assert not v.is_additive

    def test_pointwise_monotone_in_distortion(self):
        space = make_space(["a", "b", "c"])
        u = thirds(space)
        lo = distort(u, lambda t: t * t)
        hi = distort(u, lambda t: t)
        assert all(lo.value(m) <= hi.value(m) for m in space.all_masks())


class TestPushforward:
    def test_identity(self):
        space = make_space(["a", "b", "c"])
        u = thirds(space)
        assert pushforward(u, identity_map(space)).equals(u, tol=0.0)

    def test_to_one_point_space(self):
        space = make_space(["a", "b", "c"])
        point = make_space(["*"])
        bang = PointMap(space, point, {p: "*" for p in space.points})
        star = pushforward(thirds(space), bang)
        assert star.value(0) == 0 and star.value(1) == 1

    def test_collapse_sums_masses(self):
        space = make_space(["a", "b", "c"])
        u = additive_capacity(space, [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)])
        cod = make_space(["p", "q"])
        h = PointMap(space, cod, {"a": "p", "b": "p", "c": "q"})
        assert pushforward(u, h)(cod.subset(["p"])) == Fraction(1, 2)


class TestAdditiveCapacity:
    def test_negative_mass(self):
        space = make_space(["a", "b"])
        with pytest.raises(MonotonicityError) as err:
            additive_capacity(space, [Fraction(3, 2), Fraction(-1, 2)])
        assert err.value.witness == (0, 0b10)

    @pytest.mark.parametrize("masses", [
        [Fraction(1, 2), Fraction(1, 3)], [0.5, 0.5 - 1e-9]])
    def test_masses_must_sum_to_one(self, masses):
        with pytest.raises(NormalizationError):
            additive_capacity(make_space(["a", "b"]), masses)

    def test_float_masses_sum_within_table_tolerance(self):
        space = make_space(list("abcdefghij"))
        assert additive_capacity(space, [0.1] * 10).is_additive

    def test_one_mass_per_point(self):
        space = make_space(["a", "b"])
        with pytest.raises(SpaceMismatchError):
            additive_capacity(space, {"a": Fraction(1)})
        with pytest.raises(SpaceMismatchError):
            additive_capacity(space, [Fraction(1)])


class TestIsAdditive:
    def test_uniform(self):
        assert thirds(make_space(["a", "b", "c"])).is_additive

    def test_low_singletons(self):
        space = make_space(["a", "b"])
        table = full_table(space, {(): 0, ("a",): Fraction(1, 10),
                                   ("b",): Fraction(1, 10), ("a", "b"): 1})
        assert not validate_capacity(space, table).is_additive

    def test_point_mass(self):
        space = make_space(["a", "b"])
        u = additive_capacity(space, [Fraction(1), Fraction(0)])
        assert u.is_additive


LABELS = "abcde"


@st.composite
def spaces(draw, max_points=4):
    n = draw(st.integers(min_value=2, max_value=max_points))
    return FiniteSpace(tuple(LABELS[:n]))


@st.composite
def capacities(draw, space):
    table = [Fraction(0)] * (1 << len(space))
    for mask in range(1, 1 << len(space)):
        raw = draw(st.integers(min_value=0, max_value=12))
        best = Fraction(raw, 12)
        for i in range(len(space)):
            if mask >> i & 1 and table[mask ^ (1 << i)] > best:
                best = table[mask ^ (1 << i)]
        table[mask] = best
    table[-1] = Fraction(1)
    return Capacity(space, table=tuple(table))


@st.composite
def capacity_instances(draw):
    space = draw(spaces())
    return space, draw(capacities(space))


@st.composite
def two_step_maps(draw):
    a = draw(spaces())
    b = draw(spaces())
    c = draw(spaces())
    h = PointMap(a, b, {p: draw(st.sampled_from(b.points)) for p in a.points})
    j = PointMap(b, c, {p: draw(st.sampled_from(c.points)) for p in b.points})
    return a, draw(capacities(a)), h, j


@given(two_step_maps())
@settings(max_examples=60)
def test_pushforward_preserves_axioms_and_is_functorial(data):
    _, u, h, j = data
    pushed = pushforward(u, h)
    masks = list(pushed.space.all_masks())
    assert pushed.value(0) == 0 and pushed.value(masks[-1]) == 1
    for mask in masks:
        for i in range(len(pushed.space)):
            if not mask >> i & 1:
                assert pushed.value(mask) <= pushed.value(mask | 1 << i)
    assert pushforward(u, h.then(j)).equals(pushforward(pushed, j), tol=0.0)


@given(capacity_instances())
@settings(max_examples=40)
def test_pushforward_keeps_additivity(data):
    space, _ = data
    u = additive_capacity(space, [Fraction(1, len(space))] * len(space))
    cod = FiniteSpace(("x", "y"))
    h = PointMap(space, cod, {p: ("x" if i % 2 else "y")
                              for i, p in enumerate(space.points)})
    assert pushforward(u, h).is_additive


TWO = make_space(["a", "b"])
#: a monotone table on TWO whose four values are all different
QUARTERS = validate_capacity(TWO, [0, Fraction(1, 4), Fraction(1, 2), 1])

INPUT_CHECKS = {
    "index unknown label": (lambda: TWO.index("z"), SpaceMismatchError,
                            "point 'z' is not in"),
    "subset mask beyond space": (lambda: Subset(TWO, 4), SpaceMismatchError,
                                 "0x4 has bits beyond the space"),
    "act wrong count": (lambda: Act(TWO, (1,)), SpaceMismatchError,
                        "act has 1 values for 2 points"),
    "act infinite value": (lambda: Act(TWO, (1.0, math.inf)), ValueError,
                           "act values must be finite, got inf"),
    "act nan value": (lambda: Act(TWO, (math.nan, 1.0)), ValueError,
                      "act values must be finite, got nan"),
    "map image outside codomain": (
        lambda: PointMap(TWO, make_space(["x"]), {"a": "x", "b": "y"}),
        SpaceMismatchError, "map sends 'b' outside the codomain: 'y'"),
    "capacity table and masses": (
        lambda: Capacity(TWO, table=[0, 0, 0, 1], masses=[0, 1]), ValueError,
        "exactly one of table/masses must be given"),
    "capacity neither": (lambda: Capacity(TWO), ValueError,
                         "exactly one of table/masses must be given"),
    "table sequence too short": (lambda: validate_capacity(TWO, [0, 0, 1]),
                                 SpaceMismatchError, "table does not cover every subset"),
    "table sequence too long": (lambda: validate_capacity(TWO, [0, 0, 0, 1, 1]),
                                SpaceMismatchError, "table does not cover every subset"),
    "distortion decreasing": (
        lambda: distort(QUARTERS, {0: 0, Fraction(1, 4): Fraction(3, 4),
                                   Fraction(1, 2): Fraction(1, 4), 1: 1}.__getitem__),
        MonotonicityError, "distortion decreases: 3/4 > 1/4"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_an_input_check_refuses_with_its_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


ABC = make_space(["a", "b", "c"])
#: each door that reads a mask, with a mask on ABC
MASK_DOORS = {
    "capacity call": thirds(ABC),
    "indicator": lambda mask: indicator(ABC, mask),
    "epsilon": lambda mask: epsilon(UncertaintySpace(ABC, (("w", thirds(ABC)),)), mask),
    "subset": lambda mask: Subset(ABC, mask),
}


@pytest.mark.parametrize("mask", [1.9, 2.0, "3", True, Fraction(5, 2)], ids=repr)
@pytest.mark.parametrize("door", MASK_DOORS.values(), ids=MASK_DOORS)
def test_a_mask_that_is_not_an_int_is_refused_by_its_type(door, mask):
    # int() would read 1.9 as {a}, "3" as {a, b} and 5/2 as {b}
    with pytest.raises(TypeError, match=f"^a mask must be an int, got {type(mask).__name__}$"):
        door(mask)


def test_capacities_on_different_spaces_are_never_equal():
    other = make_space(["a", "c"])
    assert not QUARTERS.equals(validate_capacity(other, list(map(QUARTERS.value, range(4)))))
