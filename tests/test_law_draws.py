"""The law-suite generators draw their integers with ``laws._below``.

A trial is replayed from its derived seed, so a generator must take the
stream it always took.  The oracles below are the generators as they were
written on ``randint``, ``randrange`` and ``choice``, with acts built from
Fraction values; each new one must return an equal object and leave the
generator in the same state.
"""

import random
from fractions import Fraction

import pytest

from choquet_tower.choquet import chain_act
from choquet_tower.core import Act, Capacity, FiniteSpace, PointMap, additive_capacity
from choquet_tower import category, laws
from choquet_tower.laws import LABELS, _below

SEEDS = range(1000)


def old_fraction(rng, lo=-8, hi=8, denom=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, denom))


def old_space(rng, max_points=6):
    return FiniteSpace(tuple(LABELS[:rng.randint(2, max_points)]))


def old_act(rng, space):
    return Act(space, tuple(old_fraction(rng) for _ in space.points))


def old_nonneg_act(rng, space):
    return Act(space, tuple(old_fraction(rng, 0, 8) for _ in space.points))


def old_capacity(rng, space):
    n = len(space)
    nums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        best = rng.randrange(17)
        for i in range(n):
            if mask >> i & 1 and nums[mask ^ 1 << i] > best:
                best = nums[mask ^ 1 << i]
        nums[mask] = best
    nums[-1] = 16
    return Capacity(space, table=nums, den=16)


def old_additive(rng, space):
    weights = [rng.randint(0, 8) for _ in space.points]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    return additive_capacity(space, form=(weights, sum(weights)))


def old_point_map(rng, domain, codomain):
    return PointMap(domain, codomain,
                    {p: rng.choice(codomain.points) for p in domain.points})


def old_comonotonic_pair(rng, space):
    n = len(space)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.randint(0, n - 1) for _ in range(rng.randint(0, n - 1)))
    blocks, start = [], 0
    for c in cuts + [n]:
        if c > start:
            blocks.append(sum(1 << i for i in order[start:c]))
            start = c
    f_vals = sorted((old_fraction(rng) for _ in blocks), reverse=True)
    g_vals = sorted((old_fraction(rng) for _ in blocks), reverse=True)
    return (chain_act(space, tuple(zip(blocks, f_vals))),
            chain_act(space, tuple(zip(blocks, g_vals))))


def old_uncertainty_space(rng, space, max_caps=3):
    caps: dict = {}
    want, tries = rng.randint(1, max_caps), 0
    while len(caps) < want and tries < 30:
        caps.setdefault(old_capacity(rng, space))
        tries += 1
    return tuple(caps)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("n", range(1, 65))
def test_below_matches_randrange_draw_for_draw(n):
    for seed in range(200):
        ours, theirs = _pair(seed)
        assert [_below(ours.getrandbits, n) for _ in range(8)] == [
            theirs.randrange(n) for _ in range(8)]
        assert ours.getstate() == theirs.getstate()


def test_spaces_fractions_and_acts_match_the_old_generators():
    for seed in SEEDS:
        ours, theirs = _pair(seed)
        space = laws.rand_space(ours)
        assert space == old_space(theirs)
        assert laws.rand_space(ours, 4) == old_space(theirs, 4)
        assert laws.rand_fraction(ours) == old_fraction(theirs)
        f, g = laws.rand_act(ours, space), old_act(theirs, space)
        assert f == g and f.values == g.values and f.exact_form == g.exact_form
        assert laws.rand_nonneg_act(ours, space) == old_nonneg_act(theirs, space)
        assert ours.getstate() == theirs.getstate()


def test_capacities_and_maps_match_the_old_generators():
    for seed in SEEDS:
        ours, theirs = _pair(seed)
        space = laws.rand_space(ours)
        assert space == old_space(theirs)
        assert laws.rand_capacity(ours, space) == old_capacity(theirs, space)
        assert laws.rand_additive(ours, space) == old_additive(theirs, space)
        codomain = laws.rand_space(ours, 3)
        assert codomain == old_space(theirs, 3)
        assert laws.rand_point_map(ours, space, codomain) == old_point_map(
            theirs, space, codomain)
        assert laws.rand_comonotonic_pair(ours, space) == old_comonotonic_pair(
            theirs, space)
        assert tuple(cap for _, cap in laws.rand_uncertainty_space(
            ours, space).capacities) == old_uncertainty_space(theirs, space)
        assert ours.getstate() == theirs.getstate()


def test_a_zero_weight_draw_is_redrawn_as_before():
    # all-zero weights pick one point by a further draw; find such seeds
    space = FiniteSpace(("a", "b"))
    hits = 0
    for seed in range(3000):
        ours, theirs = _pair(seed)
        probe = random.Random(seed)
        if probe.randint(0, 8) or probe.randint(0, 8):
            continue
        hits += 1
        assert laws.rand_additive(ours, space) == old_additive(theirs, space)
        assert ours.getstate() == theirs.getstate()
    assert hits > 10


def test_spaces_are_built_once_per_size():
    rng = random.Random(3)
    spaces = [laws.rand_space(rng) for _ in range(50)]
    assert len({id(s) for s in spaces}) == len({len(s) for s in spaces})


class _FirstDrawn(Exception):
    pass


def test_a_ug_map_trial_draws_its_test_acts_from_its_own_stream(monkeypatch):
    # the identity law's first drawn act over 200 suite seeds: a second
    # seed drawn below 100 would allow at most 100 of them
    integrated = []
    real_xi = category.xi

    def xi_to_the_first_drawn_act(us, f):
        # a level's drawn acts follow its indicator acts
        integrated.append(f.values)
        if len(integrated) > 1 << len(f.space):
            raise _FirstDrawn
        return real_xi(us, f)

    real_run, identity = laws._run_law, []

    def run_identity_only(name, trials, seed, trial_fn):
        if name != "identity":
            return laws.LawResult(name, trials, 0)
        identity.append(trial_fn)
        return real_run(name, trials, seed, trial_fn)

    monkeypatch.setattr(category, "xi", xi_to_the_first_drawn_act)
    monkeypatch.setattr(laws, "_run_law", run_identity_only)
    firsts = set()
    for seed in range(200):
        integrated.clear()
        laws.run_ug_map_suite(seed)
        acts = integrated[:]
        firsts.add(acts[-1])
        # the trial replays from its derived seed alone
        integrated.clear()
        with pytest.raises(_FirstDrawn):
            identity[-1](random.Random(((seed + 1) * 1000003) & 0xFFFFFFFF))
        assert integrated == acts
    assert len(firsts) > 100
