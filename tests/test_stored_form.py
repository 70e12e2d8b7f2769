"""A capacity stores its values once and reads them back faithfully.

Tables and mass vectors are given as ints, as Fractions over one shared
denominator, as Fractions over denominators too coprime to share one, and
as floats.  Built by a checked constructor, by ``Capacity`` unchecked, or
from their exact form (``additive_capacity``'s ``form=``, a one-row batch
of ``validate_batch`` or ``Capacity(..., den=...)``), every
subset's value equals the one given, prints alike and is exact alike; only
floats and too coprime values built from values keep no exact form.
"""

import math
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower.core import (Capacity, FiniteSpace, additive_capacity,
                                batch_capacities, is_exact, validate_batch,
                                validate_capacity)

#: primes between 1000 and 1300, one per value of a four-point table
PRIMES = [p for p in range(1001, 1300, 2)
          if all(p % d for d in range(2, int(p ** 0.5) + 1))]
#: Mersenne primes: five pairs of masses over them share no short denominator
MERSENNE = [2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]
KINDS = ["int", "shared", "coprime", "float"]


def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


def _subset_sums(masses):
    # lowest point first, as a mass vector's value adds them
    sums = []
    for mask in range(1 << len(masses)):
        total = 0
        for i, m in enumerate(masses):
            if mask >> i & 1:
                total += m
        sums.append(total)
    return sums


@st.composite
def given_values(draw):
    """(kind, "table" or "masses", n, values): a normalized monotone table
    in mask order, or nonnegative masses summing to 1, of one kind."""
    kind = draw(st.sampled_from(KINDS))
    shape = draw(st.sampled_from(["table", "masses"]))
    if kind == "coprime" and shape == "masses":
        # pairs a/p and 1/5 - a/p: the sum is 1 over the short denominator 5
        nums = draw(st.lists(st.integers(1, 1000), min_size=5, max_size=5))
        masses = []
        for a, p in zip(nums, MERSENNE):
            masses += [Fraction(a, p), Fraction(1, 5) - Fraction(a, p)]
        return kind, shape, len(masses), masses
    n = draw(st.integers(4 if kind == "coprime" else 1, 4))
    size = 1 << n
    if kind == "coprime":
        # each value within 1/1000 of its point count over n + 1, so a
        # larger set is at least 1/5 above
        primes = draw(st.permutations(PRIMES))
        table = [0] + [Fraction(p * bin(m).count("1") // (n + 1), p)
                       for m, p in zip(range(1, size - 1), primes)] + [1]
        return kind, shape, n, table
    if kind == "int":
        # a point mass, or a unanimity game: 1 on the supersets of a core
        core = draw(st.integers(1, size - 1))
        if shape == "masses":
            core &= -core
            return kind, shape, n, [core >> i & 1 for i in range(n)]
        return kind, shape, n, [int(m & core == core) for m in range(size)]
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    weights[-1] += 1
    masses = [Fraction(w, sum(weights)) for w in weights]
    if kind == "float":
        masses = list(map(float, masses))
        if shape == "table":
            sums = _subset_sums([Fraction(w, sum(weights)) for w in weights])
            return kind, shape, n, list(map(float, sums))
    return kind, shape, n, masses if shape == "masses" else _subset_sums(masses)


def _builds(space, shape, values):
    """(route, capacity) for every way in that takes these values."""
    checked = validate_capacity if shape == "table" else additive_capacity
    yield "checked", checked(space, values)
    yield "unchecked", Capacity(space, **{shape: tuple(values)})
    if all(map(is_exact, values)):
        den = math.lcm(*(Fraction(v).denominator for v in values))
        nums = [int(v * den) for v in values]
        if shape == "table":
            yield "form", batch_capacities(
                space, *validate_batch(space, [[x] for x in nums], den))[0]
        else:
            yield "form", additive_capacity(space, form=(nums, den))
        yield "den", Capacity(space, **{shape: nums}, den=den)


@given(given_values())
@settings(max_examples=150, deadline=None)
def test_values_read_back_as_given(case):
    kind, shape, n, values = case
    event(f"{kind} {shape}")
    space = _space(n)
    want = values if shape == "table" else _subset_sums(values)
    for route, u in _builds(space, shape, values):
        for mask, expected in enumerate(want):
            got = u.value(mask)
            assert got == expected and str(got) == str(expected), (route, mask)
            assert is_exact(got) == is_exact(expected), (route, mask)
        if shape == "masses":
            assert [str(m) for m in u.singleton_masses()] == list(map(str, values))
        from_values = route in ("checked", "unchecked")
        assert (u.exact_form is None) == (from_values and kind in ("coprime", "float"))
