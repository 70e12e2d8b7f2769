"""The two arrow checks against their definitions, on every small map.

``is_unc_map(h, source, target)`` holds when each source capacity u has a
target capacity v that dominates its pushforward: every subset B with
v(B) = 0 has u(preimage of B) = 0.  The first such v, in target order, is
u's dominating capacity.  When some u has none, the failure names u and,
per target capacity in order, the least B with v(B) = 0 and
u(preimage of B) != 0.  ``is_mp_unc_map`` holds when each u's pushforward,
the set function B -> u(preimage of B), equals some target capacity; the
first one in target order is u's match, and a failure names u alone.

Both are written here from those definitions, with the preimage found by
its own loop over the map's images, and judged against the package on
every map between spaces of 1 and 2 points and on a seeded sample of maps
from 3 points.  The capacities are the monotone tables of
``small_tables``, each additive one also as a mass vector, so both of
``pushforward``'s forms are read.
"""

import random
from itertools import product

from choquet_tower.category import is_mp_unc_map, is_unc_map
from choquet_tower.core import (FiniteSpace, PointMap, additive_capacity, pushforward,
                                validate_capacity)
from choquet_tower.laws import distinct_space
from choquet_tower.uncertainty import UncertaintySpace

from small_tables import is_additive, monotone_tables

SPACES = {n: FiniteSpace(tuple("abc"[:n])) for n in (1, 2, 3)}
CODOMAINS = {k: FiniteSpace(tuple("xyz"[:k])) for k in (1, 2, 3)}


def forms(space: FiniteSpace) -> list[tuple[tuple, object]]:
    """(table, capacity) for every monotone table on the space, and again
    for each additive one built as a mass vector."""
    n = len(space)
    out = [(table, validate_capacity(space, list(table))) for table in monotone_tables(n)]
    out += [(table, additive_capacity(space, [table[1 << i] for i in range(n)]))
            for table in monotone_tables(n) if is_additive(table, n)]
    return out


def preimage(images: tuple, mask: int) -> int:
    """The domain mask of the points whose image lies in the codomain mask."""
    out = 0
    for i, j in enumerate(images):
        if mask >> j & 1:
            out |= 1 << i
    return out


def pushed(table: tuple, images: tuple, k: int) -> list:
    return [table[preimage(images, mask)] for mask in range(1 << k)]


def unc_oracle(images: tuple, k: int, source: list, target: list) -> tuple:
    """(verdict, dominating, failure) of null-set domination."""
    dominating = {}
    for u_name, u in source:
        push = pushed(u, images, k)
        blockers = []
        for v_name, v in target:
            bad = [mask for mask in range(1 << k) if v[mask] == 0 and push[mask] != 0]
            if not bad:
                dominating[u_name] = v_name
                break
            blockers.append((v_name, min(bad)))
        if u_name not in dominating:
            return False, None, (u_name, tuple(blockers))
    return True, dominating, None


def mp_oracle(images: tuple, k: int, source: list, target: list) -> tuple:
    """(verdict, matches, failure) of measure preservation."""
    matches = {}
    for u_name, u in source:
        hits = [v_name for v_name, v in target if list(v) == pushed(u, images, k)]
        if not hits:
            return False, None, (u_name, None)
        matches[u_name] = hits[0]
    return True, matches, None


def named(space: FiniteSpace, prefix: str, chosen: list) -> tuple[list, UncertaintySpace]:
    """The chosen (table, capacity) pairs as the oracle's named tables and
    as the package's uncertainty space."""
    names = [f"{prefix}{i}" for i in range(len(chosen))]
    return ([(name, table) for name, (table, _) in zip(names, chosen)],
            UncertaintySpace(space, tuple((name, cap) for name, (_, cap) in zip(names, chosen))))


def capacity_sets(space: FiniteSpace, prefix: str, entries: list, pairs: bool) -> list:
    """Each entry alone, and with ``pairs`` every ordered pair of entries
    holding different tables."""
    chosen = [[e] for e in entries]
    if pairs:
        chosen += [[e, f] for e, f in product(entries, repeat=2) if e[0] != f[0]]
    return [named(space, prefix, c) for c in chosen]


def check(images: tuple, source: tuple, target: tuple) -> tuple[bool, bool]:
    """Judge both checks along the map of ``images``; their verdicts."""
    (u_tables, source_us), (v_tables, target_us) = source, target
    domain, codomain = source_us.base, target_us.base
    h = PointMap(domain, codomain, {p: codomain.points[j]
                                    for p, j in zip(domain.points, images)})
    verdicts = []
    for arrow, oracle in ((is_unc_map, unc_oracle), (is_mp_unc_map, mp_oracle)):
        got = arrow(h, source_us, target_us)
        want = oracle(images, len(codomain), u_tables, v_tables)
        assert (got.verdict, got.dominating, got.failure) == want, (arrow.__name__, images)
        verdicts.append(got.verdict)
    return tuple(verdicts)


def test_every_map_between_spaces_of_one_and_two_points():
    instances = 0
    for n, k in product((1, 2), repeat=2):
        entries, targets = forms(SPACES[n]), forms(CODOMAINS[k])
        singles = capacity_sets(SPACES[n], "u", entries, pairs=False)
        # one capacity against every target list of one or two, and every
        # source list of one or two against one capacity
        runs = [(singles, capacity_sets(CODOMAINS[k], "v", targets, pairs=True)),
                (capacity_sets(SPACES[n], "u", entries, pairs=True),
                 capacity_sets(CODOMAINS[k], "v", targets, pairs=False))]
        for images in product(range(k), repeat=n):
            for sources, target_sets in runs:
                for source, target in product(sources, target_sets):
                    check(images, source, target)
                    instances += 1
    assert instances == 14_156


def test_a_seeded_sample_of_maps_from_three_points():
    rng = random.Random(39)
    entries = forms(SPACES[3])
    verdicts = set()
    for _ in range(300):
        k = rng.choice((1, 2, 3))
        images = tuple(rng.randrange(k) for _ in range(3))
        chosen = list({e[0]: e for e in rng.sample(entries, rng.choice((1, 2, 3)))}.values())
        # the target mixes the source's pushforwards with drawn tables
        tables = [tuple(pushed(table, images, k)) for table, _ in chosen]
        tables += rng.sample(monotone_tables(k), min(2, len(monotone_tables(k))))
        tables = rng.sample(list(dict.fromkeys(tables)), rng.randint(1, len(set(tables))))
        target = named(CODOMAINS[k], "v", [(t, validate_capacity(CODOMAINS[k], list(t)))
                                           for t in tables])
        verdicts.add(check(images, named(SPACES[3], "u", chosen), target))
    # each verdict pair that can occur did: measure preservation implies domination
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_one_map_builds_its_preimage_list_once(monkeypatch):
    built = []
    once = PointMap.__dict__["preimage_masks"]

    class Counting:
        # a read that reaches the class builds the list; a built list is
        # read from the map itself, past this descriptor
        def __get__(self, h, owner=None):
            built.append(h)
            return once.__get__(h, owner)

    monkeypatch.setattr(PointMap, "preimage_masks", Counting())
    domain, codomain = SPACES[3], CODOMAINS[2]
    h = PointMap(domain, codomain, {"a": "x", "b": "y", "c": "x"})
    tables = [t for t in monotone_tables(3) if not is_additive(t, 3)][:3]
    source = UncertaintySpace(domain, tuple((f"u{i}", validate_capacity(domain, list(t)))
                                            for i, t in enumerate(tables)))
    target = distinct_space(codomain, (pushforward(cap, h) for _, cap in source.capacities), "v")
    assert is_mp_unc_map(h, source, target) and is_unc_map(h, source, target)
    assert built == [h]
