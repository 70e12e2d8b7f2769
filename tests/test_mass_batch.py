"""A batch of mass vectors stored as its point columns over one denominator
(``validate_batch``, ``UncertaintySpace.of_columns``), and the tower
levels built as such batches.

The oracle is the one-vector path: each row of the batch,
``[c[k] for c in columns]`` (short where a column ends early), through
``additive_capacity(space, form=(row, den))`` in turn, which raises for the
first bad row.  A good batch must build the same names and capacities with
the same forms; a bad one must raise that row's error class, message and
witness.  A missing column leaves a count that is neither n nor 2**n,
which the batch refuses before any row is checked; so does any count
other than those two, with no one-capacity door called.  A space over a
batch must refuse a repeated row as the constructor over (name,
capacity) pairs does, and a wrong name count before any column pass.
``build_tower`` writes each level as one such batch and calls
``additive_capacity`` for none of its points; its views must equal levels
built point by point, and a view is additive by its kind, so ``mu`` of a
point mass builds none of its capacities.  ``mu`` over every view of small
towers, for every weight with numerators in {0, 1, 2}, must equal its
defining table and a layer-cake sum.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from choquet_tower import core, uncertainty
from choquet_tower.category import dirac, mu
from choquet_tower.choquet import choquet_integral
from choquet_tower.core import (Capacity, DuplicateLabelError, SpaceMismatchError,
                                TooManyPointsError, additive_capacity, batch_capacities,
                                make_space, validate_batch)
from choquet_tower.tower import build_tower
from choquet_tower.uncertainty import UncertaintySpace, epsilon

#: defects of one row ("short" ends its point's column early)
BAD_ROWS = ("negative", "sum", "float", "bool", "short")
#: defects of the batch's columns or its denominator as a whole
BAD_BATCH = ("missing", "zero-den", "negative-den", "float-den")
KINDS = ("good", "duplicate", "negated") + BAD_ROWS + BAD_BATCH


def _space(n):
    return make_space([f"p{i}" for i in range(n)])


def _columns(rows):
    return [list(column) for column in zip(*rows)]


def _rows(columns):
    return [[c[k] for c in columns if k < len(c)]
            for k in range(max(map(len, columns), default=0))]


def _draw(rng, n, count, kind):
    """Point columns and denominator of a batch of distinct mass vectors
    with one defect of the given kind ("good" and "negated" have none)."""
    den = rng.choice([1, 2, 3, 6, 12, 35])
    rows = set()
    while len(rows) < min(count, math.comb(den + n - 1, n - 1)):
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        rows.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, den])))
    rows = [list(row) for row in rows]
    rng.shuffle(rows)
    k, i = rng.randrange(len(rows)), rng.randrange(n)
    if kind == "duplicate" and len(rows) > 1:
        rows[k] = list(rows[rng.randrange(k)] if k else rows[1])
    elif kind == "negative":
        # the row still sums to den where another point can take the excess
        rows[k][i] -= den + 1
        rows[k][(i + 1) % n] += den + 1 if n > 1 else 0
    elif kind == "sum":
        rows[k][i] += rng.choice([-1, 1]) if rows[k][i] else 1
    elif kind == "float":
        rows[k][i] = float(rows[k][i])
    elif kind == "bool":
        rows[k][i] = rng.random() < 0.5
    columns = _columns(rows)
    if kind == "short":
        del columns[i][k]
    elif kind == "missing":
        del columns[i]
    elif kind == "zero-den":
        den = 0
    elif kind == "negative-den":
        den = -den
    elif kind == "float-den":
        den = float(den)
    elif kind == "negated":
        columns, den = [[-x for x in c] for c in columns], -den
    return columns, den


def _outcome(build):
    try:
        return "built", build()
    except (ValueError, TypeError, ArithmeticError) as err:
        return "error", (type(err), str(err), getattr(err, "witness", None))


def _forms(caps):
    return [(cap.exact_form, hash(cap)) for cap in caps]


def _count_refusal(n, count):
    return (f"a batch on {n} points has {count} columns, "
            f"need {n} for mass vectors or {1 << n} for tables")


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=30), st.sampled_from(KINDS))
@settings(max_examples=300, deadline=None)
def test_a_mass_batch_builds_or_refuses_what_the_one_row_path_does(seed, n, count, kind):
    rng = random.Random(seed)
    space = _space(n)
    columns, den = _draw(rng, n, count, kind)
    got = _outcome(lambda: _forms(batch_capacities(space, *validate_batch(
        space, [list(c) for c in columns], den))))
    if kind == "missing":
        want = "error", (SpaceMismatchError, _count_refusal(n, n - 1), None)
    else:
        want = _outcome(lambda: _forms(additive_capacity(space, form=(row, den))
                                       for row in _rows(columns)))
    event(f"{kind}: {want[0] if want[0] == 'built' else want[1][0].__name__}")
    assert got == want
    if kind in BAD_ROWS + BAD_BATCH and _rows(columns):
        assert got[0] == "error"


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=30),
       st.sampled_from(("good", "duplicate", "negated") + BAD_ROWS))
@settings(max_examples=200, deadline=None)
def test_a_space_over_a_mass_batch_is_the_space_over_its_rows(seed, n, count, kind):
    # n point columns are mass vectors to validate_batch, so the space builds or refuses
    # what the constructor over the rows' capacities does
    rng = random.Random(seed)
    space = _space(n)
    columns, den = _draw(rng, n, count, kind)
    names = tuple(f"c{k}" for k in range(max(map(len, columns))))

    def pairs():
        caps = [additive_capacity(space, form=(row, den)) for row in _rows(columns)]
        return UncertaintySpace(space, tuple(zip(names, caps)))

    def read(us):
        return us.names, _forms(cap for _, cap in us.capacities), us.batch is None

    got = _outcome(lambda: read(UncertaintySpace.of_columns(space, names, columns, den)))
    want = _outcome(lambda: read(pairs()))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got == want
    else:
        assert got[1][:2] == want[1][:2] and got[1][2] is False


def test_a_repeated_row_names_the_pair_the_constructor_names():
    space = _space(2)
    rows = [[1, 1], [2, 0], [0, 2], [2, 0], [1, 1]]
    caps = [additive_capacity(space, form=(row, 2)) for row in rows]
    names = ("v", "w", "x", "y", "z")
    with pytest.raises(DuplicateLabelError) as want:
        UncertaintySpace(space, tuple(zip(names, caps)))
    with pytest.raises(DuplicateLabelError) as got:
        UncertaintySpace.of_columns(space, names, _columns(rows), 2)
    assert str(got.value) == str(want.value) == "capacities 'w' and 'y' have identical tables"


@pytest.mark.parametrize("columns", [
    [[0, 1, 2], [2, 1, 0]],
    [[0, 0, 0], [1, 0, 1], [0, 1, 1], [2, 2, 2]],
], ids=["mass vectors", "tables"])
def test_a_wrong_name_count_is_refused_before_any_column_pass(monkeypatch, columns):
    calls = []
    real = uncertainty.validate_batch
    monkeypatch.setattr(uncertainty, "validate_batch",
                        lambda *args: calls.append(args) or real(*args))
    space = _space(2)
    with pytest.raises(ValueError, match="^2 capacity names for 3 rows$"):
        UncertaintySpace.of_columns(space, ("x", "y"), columns, 2)
    assert calls == []
    UncertaintySpace.of_columns(space, ("x", "y", "z"), columns, 2)
    assert len(calls) == 1


def test_a_mass_batch_missing_a_column_names_both_counts():
    space = _space(3)
    with pytest.raises(SpaceMismatchError) as err:
        UncertaintySpace.of_columns(space, ("x", "y"), [[1, 2], [2, 1]], 3)
    assert str(err.value) == _count_refusal(3, 2)
    assert "need 3 for mass vectors or 8 for tables" in str(err.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_count_neither_n_nor_two_to_the_n_is_refused_before_any_row(monkeypatch, n):
    calls = []

    def door(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a row was checked alone")

    for name in ("additive_capacity", "_checked_form", "_checked_table"):
        monkeypatch.setattr(core, name, door)
    space = _space(n)
    counts = {0, n - 1, n + 1, (1 << n) - 1, (1 << n) + 1} - {n, 1 << n}
    for count in sorted(counts):
        with pytest.raises(SpaceMismatchError) as err:
            validate_batch(space, [[0, 1, 2]] * count, 2)
        assert str(err.value) == _count_refusal(n, count)
    assert calls == []


def test_a_count_other_than_n_past_the_dense_cap_is_too_many_points():
    space = _space(core.MAX_DENSE_POINTS + 1)
    with pytest.raises(TooManyPointsError):
        validate_batch(space, [[1]] * (len(space) - 1), 1)
    columns = [[0]] * (len(space) - 1) + [[1]]
    assert validate_batch(space, columns, 1) == ("masses", columns, 1)


# -- tower levels ----------------------------------------------------------------

TOWERS = [(n, grid) for n in (1, 2, 3) for grid in (1, 2, 3)]


def _level_point_by_point(space, grid):
    """Every grid composition on the space as (name, capacity) through the
    checked form entry, one point at a time.  The compositions are the
    choices of len(space) - 1 bar positions among grid + len(space) - 1
    slots, in lexicographic order, which orders them lexicographically."""
    slots = grid + len(space) - 1
    level = []
    for bars in itertools.combinations(range(slots), len(space) - 1):
        edges = (-1, *bars, slots)
        nums = [b - a - 1 for a, b in zip(edges, edges[1:])]
        level.append(("-".join(map(str, nums)), additive_capacity(space, form=(nums, grid))))
    return level


@pytest.mark.parametrize("n, grid", TOWERS)
def test_build_tower_checks_each_level_as_one_batch(monkeypatch, n, grid):
    calls = []
    monkeypatch.setattr(core, "additive_capacity",
                        lambda *a, **k: calls.append(a) or additive_capacity(*a, **k))
    init = Capacity.__init__
    monkeypatch.setattr(Capacity, "__init__",
                        lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
    tower = build_tower(_space(n), grid, 2)
    # no point is checked alone, and no capacity is built until one is read
    assert calls == []
    monkeypatch.undo()
    for view in tower.views:
        want = _level_point_by_point(view.base, grid)
        assert view.names == tuple(name for name, _ in want)
        assert view.capacities == tuple(want)
        assert [cap.exact_form for _, cap in view.capacities] == [
            cap.exact_form for _, cap in want]
        assert view.is_additive and len(view.batch[0]) == len(view.base)


def _layer_cake(v, f):
    """The Choquet integral of a nonnegative act under an additive weight,
    as a sum over the act's distinct values t of the step up to t times the
    weight of the points where the act reaches t."""
    masses = v.singleton_masses()
    total, below = Fraction(0), 0
    for t in sorted(set(f.values)):
        total += (t - below) * sum(m for m, x in zip(masses, f.values) if x >= t)
        below = t
    return total


#: most points of a view's capacity space whose every weight is enumerated
MAX_WEIGHT_POINTS = 6


def test_mu_over_every_small_tower_view_matches_its_definition():
    # every view of the grid 1-3 towers of depth 2 on 1-3 base points whose
    # capacity space has at most MAX_WEIGHT_POINTS points, and every weight
    # there with numerators in {0, 1, 2}
    checked = set()
    for n, grid in TOWERS:
        for k, view in enumerate(build_tower(_space(n), grid, 2).views):
            size = len(view.capacity_space)
            if size > MAX_WEIGHT_POINTS:
                continue
            checked.add((n, grid, k))
            masks = list(view.base.all_masks())
            events = {mask: epsilon(view, mask) for mask in masks}
            for nums in itertools.product((0, 1, 2), repeat=size):
                if not any(nums):
                    continue
                v = additive_capacity(view.capacity_space, form=(list(nums), sum(nums)))
                averaged = mu(view, v)
                got = [averaged.value(mask) for mask in masks]
                assert got == [choquet_integral(v, events[mask]) for mask in masks]
                assert got == [_layer_cake(v, events[mask]) for mask in masks]
    # the views whose weights are too many to enumerate: 3**10 and more
    assert len(checked) == 2 * len(TOWERS) - 4


def test_a_point_mass_on_a_mass_batch_builds_no_capacity():
    # a view over a batch of mass vectors is additive by its kind, so the
    # first average of a point mass reads the batch alone
    view = build_tower(_space(2), 3, 3).views[-1]
    weights = view.capacity_space
    averaged = mu(view, dirac(weights, weights.points[len(weights) // 2]))
    assert "capacities" not in view.__dict__
    assert view.is_additive and averaged.is_additive
    assert averaged == view.capacity(weights.points[len(weights) // 2])
