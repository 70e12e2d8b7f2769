"""Every push-forward between spaces of 1 to 3 points, against its definition.

``pushforward(u, h)`` is the set function B -> u(preimage of B under h).
This takes every map h between spaces of 1 to 3 points (27 from 3 points
to 3) and pushes along it every monotone table on h's domain with values
in {0, 1/2, 1}, and every mass vector whose numerators lie in {0, 1, 2},
once as a mass vector and once as the same set function written out as a
dense table.  Each result is checked subset by subset against the
preimage, computed here by its own loop over the domain's points, and so
is its additivity.  The two results of one mass vector must be equal and
hash alike, as two forms of one set function do.
"""

from fractions import Fraction
from itertools import product

import pytest

from choquet_tower.core import (FiniteSpace, PointMap, additive_capacity, pushforward,
                                validate_capacity)

from small_tables import is_additive, monotone_tables

NUMERATORS = (0, 1, 2)
SIZES = (1, 2, 3)


def space(n: int, labels: str) -> FiniteSpace:
    return FiniteSpace(tuple(labels[:n]))


def every_map(n: int, k: int) -> list[PointMap]:
    """Every map from n points to k points."""
    domain, codomain = space(n, "abc"), space(k, "xyz")
    return [PointMap(domain, codomain,
                     {p: codomain.points[j] for p, j in zip(domain.points, images)})
            for images in product(range(k), repeat=n)]


def preimage(h: PointMap, mask: int) -> int:
    """The domain mask of the points whose image lies in the codomain mask."""
    out = 0
    for i, label in enumerate(h.domain.points):
        if mask >> h.codomain.points.index(h(label)) & 1:
            out |= 1 << i
    return out


def mass_table(nums: tuple, den: int) -> list:
    """The set function of masses nums / den, written out subset by subset."""
    return [Fraction(sum(x for i, x in enumerate(nums) if m >> i & 1), den)
            for m in range(1 << len(nums))]


def check(got, table: list, h: PointMap, masses: bool) -> None:
    k = len(h.codomain)
    want = [table[preimage(h, mask)] for mask in range(1 << k)]
    assert got.space == h.codomain and (got._masses is not None) == masses
    assert [got.value(mask) for mask in range(1 << k)] == want, (table, h.images)
    assert got.is_additive == is_additive(want, k)


def test_the_maps_are_every_map():
    assert [len(every_map(n, k)) for n in SIZES for k in SIZES] == [1, 2, 3, 1, 4, 9,
                                                                    1, 8, 27]
    assert len({h.images for h in every_map(3, 3)}) == 27


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("n", SIZES)
def test_every_table_pushes_forward_to_its_preimages(n, k):
    tables = monotone_tables(n)
    assert len(tables) == [1, 9, 129][n - 1]
    domain = space(n, "abc")
    caps = [validate_capacity(domain, table) for table in tables]
    for h in every_map(n, k):
        for table, u in zip(tables, caps):
            check(pushforward(u, h), table, h, masses=False)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("n", SIZES)
def test_every_mass_vector_pushes_forward_alike_in_both_forms(n, k):
    domain = space(n, "abc")
    vectors = [nums for nums in product(NUMERATORS, repeat=n) if any(nums)]
    assert len(vectors) == 3 ** n - 1
    for nums in vectors:
        table = mass_table(nums, sum(nums))
        as_masses = additive_capacity(domain, form=(list(nums), sum(nums)))
        as_table = validate_capacity(domain, table)
        assert as_table._masses is None
        for h in every_map(n, k):
            from_masses, from_table = pushforward(as_masses, h), pushforward(as_table, h)
            check(from_masses, table, h, masses=True)
            check(from_table, table, h, masses=False)
            assert from_masses == from_table and from_table == from_masses
            assert hash(from_masses) == hash(from_table)
