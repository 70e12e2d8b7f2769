"""``core.point_flags`` is the one reader of a mask's points.

Each function that reads a mask's points through it is checked here
against the bit walk it replaced, rewritten in the test, and compared by
``repr``, so a value's type and a float's last bit are pinned too.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from choquet_tower.choquet import chain_act, choquet_integral
from choquet_tower.core import (Act, Capacity, PointMap, SpaceMismatchError, Subset,
                                additive_capacity, indicator, make_space, point_flags,
                                validate_capacity)
from choquet_tower.hierarchy import conditional_act


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _walk_sum(masses, mask, start=0):
    # the old walk: masses added lowest point first into a running total
    total = start
    while mask:
        low = mask & -mask
        total += masses[low.bit_length() - 1]
        mask ^= low
    return total


def test_point_flags_reads_every_mask_of_up_to_10_points():
    for mask in range(1 << 10):
        flags = point_flags(mask)
        assert len(flags) == max(1, mask.bit_length())
        assert flags == bytes(mask >> i & 1 for i in range(len(flags)))


def test_labels_and_indicator_read_every_mask_as_the_bit_walk_did():
    for n in range(1, 9):
        space = _space(n)
        for mask in space.all_masks():
            assert space.labels(mask) == tuple(p for i, p in enumerate(space.points)
                                               if mask >> i & 1)
            old = tuple(1 if mask >> i & 1 else 0 for i in range(n))
            assert repr(indicator(space, mask).values) == repr(old)
            assert indicator(space, Subset(space, mask)) == Act(space, old)


def test_preimage_mask_matches_the_walk_over_the_images_for_every_small_map():
    for m, n in product(range(1, 4), repeat=2):
        domain, codomain = _space(m), make_space([f"q{j}" for j in range(n)])
        for images in product(range(n), repeat=m):
            h = PointMap(domain, codomain, {p: codomain.points[j]
                                            for p, j in zip(domain.points, images)})
            masks = h.preimage_masks()
            for mask in codomain.all_masks():
                old = 0
                for i, j in enumerate(h.images):
                    if mask >> j & 1:
                        old |= 1 << i
                assert h.preimage_mask(mask) == old == masks[mask]
    rng = random.Random(5)
    domain, codomain = _space(300), _space(40)
    h = PointMap(domain, codomain, {p: rng.choice(codomain.points) for p in domain.points})
    for mask in (0, codomain.full_mask, rng.getrandbits(40), 1 << 39):
        assert h.preimage_mask(mask) == sum(1 << i for i, j in enumerate(h.images)
                                            if mask >> j & 1)


def _mass_vectors(n, rng):
    # exact, float, and exact but kept as its values, as too coprime ones are
    space = _space(n)
    nums = [rng.randrange(5) + 1 for _ in range(n)]
    yield additive_capacity(space, form=(nums, sum(nums)))
    floats = [rng.random() for _ in range(n)]
    yield Capacity(space, masses=[x / sum(floats) for x in floats])
    yield Capacity(space, masses=[Fraction(k, sum(nums)) for k in nums], derive=False)


def test_a_mass_vector_sums_every_mask_as_the_walk_did():
    rng = random.Random(11)
    for n in range(1, 9):
        for u in _mass_vectors(n, rng):
            masses = u.singleton_masses()
            for mask in u.space.all_masks():
                old = _walk_sum(u._masses, mask)
                old = old if u._den is None else Fraction(old, u._den)
                assert repr(u.value(mask)) == repr(old)
                assert u.value(mask) == _walk_sum(masses, mask)


def test_a_mass_vector_refuses_a_mask_beyond_its_points_as_the_walk_did():
    for u in _mass_vectors(3, random.Random(14)):
        for mask in (-1, -8, 8, 0b1010, 1 << 70):
            with pytest.raises(IndexError):
                u.value(mask)
        assert u.is_null(0) and not u.is_null(0b111)


def test_both_forms_refuse_a_mask_below_zero_or_past_their_points():
    # a dense table once read -1 as its full set through negative indexing
    space = _space(3)
    forms = [validate_capacity(space, [0, 0, 0, 0, 0, 0, Fraction(1, 2), 1]),
             validate_capacity(space, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0]),
             additive_capacity(space, form=([0, 1, 2], 3)),
             additive_capacity(space, [0.25, 0.25, 0.5])]
    assert [u._masses is None for u in forms] == [True, True, False, False]
    for u in forms:
        for mask in (-1, 1 << 3, 1 << 70):
            for read in (u.value, u.is_null):
                with pytest.raises(IndexError, match="has bits beyond the space"):
                    read(mask)
            with pytest.raises(SpaceMismatchError, match="has bits beyond the space"):
                u(mask)
        assert u.value(0) == 0 and u.value(0b111) == 1 == u(0b111)
        assert u.is_null(0) and not u.is_null(0b111)


def test_the_mass_walk_of_choquet_integral_matches_the_point_by_point_walk():
    rng = random.Random(12)
    for n in range(1, 9):
        space = _space(n)
        acts = [Act(space, tuple(rng.choice((-1.5, 0.0, 0.25, 2.0)) for _ in range(n))),
                Act(space, tuple(rng.choice((Fraction(-1, 3), 0, 1.5, 2)) for _ in range(n))),
                Act(space, tuple(Fraction(rng.randrange(-4, 5), 7) for _ in range(n)))]
        for u, f in product(_mass_vectors(n, rng), acts):
            if u.exact_form is not None and f.exact_form is not None:
                continue  # the exact dot product, not the walk
            masses = u.singleton_masses()
            total = level = 0
            blocks = f.chain_blocks
            for idx, (mask, value) in enumerate(blocks):
                level = _walk_sum(masses, mask, level)
                nxt = blocks[idx + 1][1] if idx + 1 < len(blocks) else 0
                if value - nxt != 0:
                    total += (value - nxt) * level
            assert repr(choquet_integral(u, f)) == repr(total)


def test_float_masses_are_added_left_to_right_without_compensation():
    space = _space(3)
    masses = (1e16, 1.0, -1e16)
    left_to_right = _walk_sum(masses, 0b111)
    assert left_to_right == 0.0 != math.fsum(masses)
    u = Capacity(space, masses=masses)
    assert repr(u.value(0b111)) == repr(left_to_right)
    for values in ((2.0, 2.0, 2.0), (3.0, 1.0, 2.0), (1.0, 2.0, 0.5)):
        f = Act(space, values)
        total = level = 0
        blocks = f.chain_blocks
        for idx, (mask, value) in enumerate(blocks):
            level = _walk_sum(masses, mask, level)
            nxt = blocks[idx + 1][1] if idx + 1 < len(blocks) else 0
            if value - nxt != 0:
                total += (value - nxt) * level
        assert repr(choquet_integral(u, f)) == repr(total)


def test_a_200_000_point_mass_vector_sums_its_masks():
    n = 200_000
    space = _space(n)
    nums = [i % 7 + 1 for i in range(n)]
    u = additive_capacity(space, form=(nums, sum(nums)))
    assert u.value(space.full_mask) == 1
    thirds = int("".join("1" if i % 3 == 0 else "0" for i in reversed(range(n))), 2)
    assert u.value(thirds) == Fraction(sum(nums[::3]), sum(nums))
    floats = [1 / (i + 1) for i in range(n)]
    total = 0
    for x in floats:
        total += x
    assert repr(Capacity(space, masses=floats).value(space.full_mask)) == repr(total)


def test_chain_act_and_conditional_act_place_values_as_the_bit_walk_did():
    rng = random.Random(13)
    for n in range(1, 9):
        space = _space(n)
        for _ in range(30):
            blocks = tuple((rng.getrandbits(n), rng.choice((1, Fraction(1, 2), 0.5, -2)))
                           for _ in range(rng.randrange(4)))
            out = [0] * n
            for mask, value in blocks:
                for i in range(n):
                    if mask >> i & 1:
                        out[i] = value
            assert repr(chain_act(space, blocks).values) == repr(tuple(out))
        f = Act(space, tuple(rng.choice((1, Fraction(2, 3), 0.25)) for _ in range(n)))
        g = Act(space, tuple(rng.choice((0, -1, 1.5)) for _ in range(n)))
        for mask in space.all_masks():
            old = tuple(f.values[i] if mask >> i & 1 else g.values[i] for i in range(n))
            assert repr(conditional_act(Subset(space, mask), f, g).values) == repr(old)
