"""The exact form of capacities and acts against the Fraction definitions.

An exact capacity keeps its table or masses as integer numerators over one
common denominator, and an exact act keeps its descending chain the same
way, so ``choquet_integral`` sums integers and builds one Fraction at the
end.  Values holding a float, and exact values whose denominators are too
coprime to share one, have no exact form and take the walk over the values
themselves.  The oracles here are ``choquet_sum``, a point-by-point Fraction
walk, that value walk for floats, and the pointwise definition of equality.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core
from choquet_tower.choquet import choquet_integral, choquet_sum
from choquet_tower.core import (Act, Capacity, FiniteSpace, SpaceMismatchError,
                                TABLE_TOL, additive_capacity, is_exact, make_space,
                                validate_capacity, values_close)
from choquet_tower.laws import rand_capacity
from choquet_tower.spacefile import load_space_file
from choquet_tower.tower import build_tower

#: primes between 1000 and 1300: values drawing their denominators from
#: them soon need a common denominator too long for an exact form
PRIMES = [p for p in range(1001, 1300, 2)
          if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


def _subset_sums(masses):
    sums = [0] * (1 << len(masses))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + masses[low.bit_length() - 1]
    return sums


def _number(rng: random.Random, kind: str, num: int):
    """A value of the given kind: shared denominator 12, a prime one, a
    whole int, or a float."""
    if kind == "shared":
        return Fraction(num, 12)
    if kind == "prime":
        return Fraction(num, rng.choice(PRIMES))
    if kind == "int":
        return num
    return num / 7


def _form_kind(values) -> str:
    if core.tolerance(values):
        return "float"
    return "numerators" if core._exact_form(values) else "coprime fallback"


# -- oracles --------------------------------------------------------------------

def fraction_walk(u: Capacity, f: Act) -> Fraction:
    """Telescoping sum point by point: sort the points by value, descending,
    and add (x_k - x_(k+1)) * u(top k points), with x_(n+1) = 0."""
    n = len(f.values)
    order = sorted(range(n), key=lambda i: f.values[i], reverse=True)
    masses = u.singleton_masses() if u._masses is not None else None
    total = Fraction(0)
    level = Fraction(0)
    mask = 0
    for k, i in enumerate(order):
        mask |= 1 << i
        level = level + masses[i] if masses else Fraction(u.value(mask))
        nxt = f.values[order[k + 1]] if k + 1 < n else 0
        total += (Fraction(f.values[i]) - Fraction(nxt)) * level
    return total


def value_walk(u: Capacity, f: Act):
    """The walk over the values themselves, block by block down the act's
    chain, with a running cumulative mass for a mass vector: the result,
    float or exact, that inputs without an exact form get."""
    total = level = cum = 0
    blocks = f.chain_blocks
    for idx, (mask, value) in enumerate(blocks):
        if u._masses is None:
            cum |= mask
            level = u.value(cum)
        else:
            for i in range(len(f.values)):
                if mask >> i & 1:
                    level += u.value(1 << i)
        nxt = blocks[idx + 1][1] if idx + 1 < len(blocks) else 0
        if value != nxt:
            total += (value - nxt) * level
    return total


# -- strategies -----------------------------------------------------------------

CAPACITY_KINDS = ["shared", "prime", "int", "float"]
ACT_KINDS = ["shared", "prime", "int", "float", "mixed"]


def _act(rng: random.Random, space: FiniteSpace, kind: str) -> Act:
    # a small pool of values, negative ones included, so blocks share points
    def draw():
        k = kind if kind != "mixed" else rng.choice(["shared", "float"])
        return _number(rng, k, rng.randint(-9, 9))
    pool = [draw() for _ in range(rng.randint(1, 6))]
    return Act(space, tuple(rng.choice(pool) for _ in space.points))


@st.composite
def dense_cases(draw):
    """A monotone table on 1-8 points with values of one kind, and an act."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    cap_kind = draw(st.sampled_from(CAPACITY_KINDS))
    space = _space(n)
    if cap_kind == "int":
        # a unanimity game: 1 on the supersets of a drawn subset, else 0
        core_mask = rng.randrange(1, 1 << n)
        table = [int(m & core_mask == core_mask) for m in range(1 << n)]
    else:
        table = [_number(rng, cap_kind, 0)] * (1 << n)
        for mask in range(1, 1 << n):
            below = max(table[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
            table[mask] = below + _number(rng, cap_kind, rng.randint(0, 3))
    u = Capacity(space, table=tuple(table))
    return u, _act(rng, space, draw(st.sampled_from(ACT_KINDS)))


@st.composite
def mass_cases(draw):
    """A mass vector on up to 600 points with values of one kind, and an act."""
    n = draw(st.integers(min_value=1, max_value=600))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    cap_kind = draw(st.sampled_from(CAPACITY_KINDS))
    space = _space(n)
    masses = tuple(_number(rng, cap_kind, rng.randint(0, 9)) for _ in range(n))
    u = Capacity(space, masses=masses)
    return u, _act(rng, space, draw(st.sampled_from(ACT_KINDS)))


def _check_against_oracles(u: Capacity, f: Act) -> None:
    values = (u.singleton_masses() if u._masses is not None
              else [u.value(m) for m in u.space.all_masks()])
    event(f"capacity: {_form_kind(values)}")
    event(f"act: {_form_kind(f.values)}")
    got = choquet_integral(u, f)
    if core.tolerance(values) or core.tolerance(f.values):
        want = value_walk(u, f)
        assert got == want and is_exact(got) == is_exact(want)
        return
    want = choquet_sum(u.value, f)
    assert got == want and is_exact(got) == is_exact(want)
    assert got == fraction_walk(u, f)
    if u.exact_form is None or f.exact_form is None:
        assert got == value_walk(u, f)


@given(dense_cases())
@settings(max_examples=400, deadline=None)
def test_dense_integral_matches_the_definitions(case):
    _check_against_oracles(*case)


@given(mass_cases())
@settings(max_examples=150, deadline=None)
def test_mass_integral_matches_the_definitions(case):
    _check_against_oracles(*case)


def test_both_exact_kinds_are_drawn():
    # the strategies above reach both the numerators and the fallback
    rng = random.Random(1)
    shared = [_number(rng, "shared", k) for k in range(64)]
    coprime = [_number(rng, "prime", 1) for _ in range(64)]
    assert _form_kind(shared) == "numerators"
    assert _form_kind(coprime) == "coprime fallback"


def test_readme_example_stays_a_fraction():
    space = make_space(["R", "B", "Y"])
    u = additive_capacity(space, [Fraction(1, 3)] * 3)
    got = choquet_integral(u, Act(space, (11, 1, 0)))
    assert got == 4 and type(got) is Fraction


def test_whole_values_integrate_to_equal_exact_values():
    space = make_space(["a", "b"])
    u = validate_capacity(space, [0, Fraction(1, 2), Fraction(1, 3), 1])
    # whole values need not give an int, only the exact value: 5 times the
    # full set's 1, no term at all for a zero act, and 4 * 1/2 + 1
    for values, want in (((5, 5), 5), ((Fraction(0), Fraction(0)), 0), ((5, 1), 3)):
        got = choquet_integral(u, Act(space, values))
        assert got == want == choquet_sum(u.value, Act(space, values))
        assert is_exact(got)


# -- equality and hashing across forms ------------------------------------------

@st.composite
def capacity_pairs(draw):
    """Two capacities on one space from a small family, so equal pairs are
    common: mass vectors and tables, exact forms over different
    denominators, float copies, and a squared (non-additive) table."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = _space(n)
    weights = draw(st.lists(st.integers(min_value=0, max_value=3),
                            min_size=n, max_size=n).filter(any))
    scale = 1 << sum(weights).bit_length()  # dyadic values, exact in floats
    weights[-1] += scale - sum(weights)

    def member(choice):
        masses = [Fraction(w, scale) for w in weights]
        sums = _subset_sums(masses)
        nums = _subset_sums([3 * w for w in weights])
        return {
            "masses": lambda: additive_capacity(space, masses),
            "masses over 3x": lambda: Capacity(
                space, masses=[3 * w for w in weights], den=3 * scale),
            "table": lambda: validate_capacity(space, sums),
            "table over 3x": lambda: Capacity(space, table=nums, den=3 * scale),
            "float masses": lambda: Capacity(space, masses=tuple(map(float, masses))),
            "float table": lambda: Capacity(space, table=tuple(map(float, sums))),
            "squared table": lambda: Capacity(space, table=tuple(s * s for s in sums)),
        }[choice]()

    kinds = st.sampled_from(["masses", "masses over 3x", "table", "table over 3x",
                             "float masses", "float table", "squared table"])
    return member(draw(kinds)), member(draw(kinds))


@given(capacity_pairs())
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_follow_the_pointwise_definition(pair):
    a, b = pair
    pointwise = all(a.value(m) == b.value(m) for m in a.space.all_masks())
    event(f"equal: {pointwise}")
    assert (a == b) == pointwise == (b == a)
    if pointwise:
        assert hash(a) == hash(b)


def test_float_equality_keeps_its_tolerance():
    space = _space(2)
    exact = additive_capacity(space, [Fraction(1, 3), Fraction(2, 3)])
    near = Capacity(space, masses=(1 / 3, 2 / 3 + TABLE_TOL / 10))
    assert exact.equals(near) and exact != near


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(CAPACITY_KINDS))
@settings(max_examples=100, deadline=None)
def test_null_sets_follow_the_value_definition(seed, kind):
    rng = random.Random(seed)
    space = _space(rng.randint(1, 4))
    masses = [_number(rng, kind, rng.choice([0, 0, 1, 2])) for _ in space.points]
    sums = _subset_sums(masses)
    for u in (Capacity(space, masses=tuple(masses)), Capacity(space, table=tuple(sums))):
        for mask in space.all_masks():
            assert u.is_null(mask) == values_close(u.value(mask), 0, TABLE_TOL)


# -- where exact forms come from ------------------------------------------------

def _fraction_rand_capacity(rng, space):
    """The random table generator as written in Fractions: raw sixteenths
    pushed up along set inclusion."""
    n = len(space)
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        best = Fraction(rng.randint(0, 16), 16)
        for i in range(n):
            if mask >> i & 1 and table[mask ^ (1 << i)] > best:
                best = table[mask ^ (1 << i)]
        table[mask] = best
    table[-1] = Fraction(1)
    return tuple(table)


def test_rand_capacity_draws_like_the_fraction_generator():
    for seed in range(200):
        space = _space(1 + seed % 6)
        ours, theirs = random.Random(seed), random.Random(seed)
        u = rand_capacity(ours, space)
        values = tuple(map(u.value, space.all_masks()))
        assert values == _fraction_rand_capacity(theirs, space)
        assert all(type(v) is Fraction for v in values)
        assert ours.getstate() == theirs.getstate()
        nums, den = u.exact_form
        assert [Fraction(k, den) for k in nums] == list(values)


@pytest.fixture
def derivations(monkeypatch):
    """Counts how often an exact form is derived from values."""
    calls = {"n": 0}
    derive = core._exact_form

    def counted(values):
        calls["n"] += 1
        return derive(values)

    monkeypatch.setattr(core, "_exact_form", counted)
    return calls


def test_checked_constructors_hand_over_their_form(derivations):
    space = _space(3)
    table = validate_capacity(space, _subset_sums([Fraction(1, 6), Fraction(1, 3),
                                                   Fraction(1, 2)]))
    masses = additive_capacity(space, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
    f = Act(space, (Fraction(3, 2), 0, -1))
    assert derivations["n"] == 2
    for _ in range(3):
        choquet_integral(table, f)
        choquet_integral(masses, f)
    # the act's form, once; the capacities kept theirs
    assert derivations["n"] == 3


def test_space_file_table_keeps_its_validated_form(derivations):
    points = [f"p{i}" for i in range(4)]
    sums = _subset_sums([Fraction(k, 10) for k in range(1, 5)])
    values = {format(m, "04b")[::-1]: str(v) for m, v in enumerate(sums)}
    loaded = load_space_file({"points": points,
                              "capacities": {"a": {"mode": "full", "values": values}},
                              "acts": {"f": ["1", "-2", "1/3", "0"]}})
    assert derivations["n"] == 1
    choquet_integral(loaded.capacities["a"], loaded.acts["f"])
    assert derivations["n"] == 2


def test_validation_refuses_a_mapping_and_a_table_of_the_wrong_length():
    space = _space(2)
    # a mapping is never read by its keys, not even one in mask order
    for table in ({0: 0, 1: 0, 2: 0, 3: 1}, dict.fromkeys(range(4), 0)):
        with pytest.raises(TypeError, match="sequence in mask order"):
            validate_capacity(space, table)
    for table in ([0, 0, 1], [0, 0, 0, 1, 1]):
        with pytest.raises(SpaceMismatchError, match="does not cover every subset"):
            validate_capacity(space, table)


@pytest.mark.parametrize("grid", [1, 2, 3])
def test_tower_views_share_the_level_spaces(grid):
    # depth 1 is a tower of one view
    for depth in (1, 2, 3):
        tower = build_tower(FiniteSpace(("a", "b")), grid, depth)
        assert tower.depth == len(tower.views) == depth
        assert tower.space_at(0) is tower.base
        for k in range(tower.depth):
            assert tower.view(k).base is tower.space_at(k)
            assert tower.view(k).capacity_space is tower.space_at(k + 1)


# -- cost guard -----------------------------------------------------------------

ARITHMETIC = ("__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__add__", "__radd__",
              "__sub__", "__rsub__", "__mul__", "__rmul__", "__hash__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """Counts Fractions built, Fraction arithmetic and comparisons, and
    reads of a Fraction's numerator or denominator."""
    counts = {"built": 0, "ops": 0, "reads": 0}

    def counting(method, key):
        def wrapper(*args):
            counts[key] += 1
            return method(*args)
        return wrapper

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name), "ops"))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(
            counting(getattr(Fraction, name).fget, "reads")))
    new = Fraction.__new__

    def build(cls, *args, **kw):
        counts["built"] += 1
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(build))
    return counts


def _prepared_inputs():
    rng = random.Random(11)
    pairs = []
    for n in range(2, 9):
        space = _space(n)
        pairs.append((rand_capacity(rng, space), _act(rng, space, "shared")))
    space = _space(300)
    masses = additive_capacity(space, [Fraction(1, 300)] * 300)
    pairs.append((masses, _act(rng, space, "shared")))
    for u, f in pairs:
        assert u.exact_form is not None and f.exact_chain is not None
        assert f.exact_chain[2] > 1  # Fraction steps: not every value is whole
    return pairs


def test_integral_builds_one_fraction_and_does_no_fraction_arithmetic(fraction_ops):
    pairs = _prepared_inputs()
    fraction_ops.update(built=0, ops=0, reads=0)
    for k in range(100):
        choquet_integral(*pairs[k % len(pairs)])
    assert fraction_ops["built"] <= 100
    assert fraction_ops["ops"] == 0
    assert fraction_ops["reads"] == 0


def test_integral_matches_on_the_prepared_inputs():
    for u, f in _prepared_inputs():
        assert choquet_integral(u, f) == choquet_sum(u.value, f) == fraction_walk(u, f)

