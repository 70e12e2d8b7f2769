"""``laws.rand_capacity`` draws its tables in bulk; the per-mask loop it
replaced is kept here as the oracle for its table and generator state."""

import random

import pytest

from choquet_tower.core import FiniteSpace
from choquet_tower.laws import LABELS, rand_capacity


def _per_mask_table(rng: random.Random, n: int) -> list[int]:
    # each mask in ascending order: a fresh draw, raised to its covers below
    nums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        best = rng.randint(0, 16)
        for i in range(n):
            if mask >> i & 1:
                below = nums[mask ^ (1 << i)]
                if below > best:
                    best = below
        nums[mask] = best
    nums[-1] = 16
    return nums


@pytest.mark.parametrize("n", range(1, 7))
def test_bulk_draw_matches_the_per_mask_loop(n):
    space = FiniteSpace(tuple(LABELS[:n]))
    for seed in range(300):
        bulk, oracle = random.Random(seed), random.Random(seed)
        cap = rand_capacity(bulk, space)
        assert cap.exact_form == (_per_mask_table(oracle, n), 16)
        assert bulk.random() == oracle.random()
