"""Finite measurable spaces, acts, and capacities with exact arithmetic.

Values are either exact rationals (``fractions.Fraction``, the default for
all law checking) or 64-bit floats (distortions with non-integer exponents,
exp/log utilities, quadrature).  Mixed arithmetic silently promotes to
float, which is the intended behaviour.  Whether a comparison is exact or
within a tolerance is decided here, by ``tolerance``, and nowhere else.

Exact capacities and acts also keep their values in one exact form, built
once by ``_exact_form``: integer numerators over one common denominator,
which compare, add and multiply at integer speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat
from operator import add, attrgetter, eq, gt, mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Number = Union[int, Fraction, float]

#: absolute tolerance for capacity tables and mass vectors holding a float
TABLE_TOL = 1e-12
#: absolute tolerance for comparing values when either one is a float
VALUE_TOL = 1e-9
#: cap on spaces that carry dense capacity tables (2**n entries)
MAX_DENSE_POINTS = 20
#: largest whole exponent raised exactly; a larger one is refused
MAX_EXACT_EXPONENT = 1000


class EmptySpaceError(ValueError):
    """A space needs at least one point."""


class DuplicateLabelError(ValueError):
    """Point labels (or capacity names) must be unique."""


class TooManyPointsError(ValueError):
    """Space exceeds the dense-table point cap."""


class SpaceMismatchError(ValueError):
    """A subset, act, or capacity was used with a foreign space."""


class NormalizationError(ValueError):
    """Capacity endpoints are wrong: table(empty) must be 0, table(full) 1."""


class MonotonicityError(ValueError):
    """A set function decreases along set inclusion."""

    def __init__(self, small: int, large: int, message: str):
        super().__init__(message)
        self.witness = (small, large)


class EndpointError(ValueError):
    """A distortion must fix 0 and 1."""


def is_exact(x: Number) -> bool:
    """True for values carried by the rational backend."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_exact(x: Union[str, int, float, Fraction]) -> Fraction:
    """Parse a decimal string, "p/q" string, integer or float into a Fraction.

    A float is read through its decimal text, so 0.1 becomes 1/10.
    Booleans are refused: they are not numbers, though Python counts them
    as integers.
    """
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def parse_number(x: Union[str, int, float, Fraction], backend: str) -> Number:
    """Parse a value exactly (see ``as_exact``), then convert it for the
    backend: a Fraction for "rational", a float for "float", where a value
    too large for a float is refused."""
    value = as_exact(x)
    if backend != "float":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{x} is too large for a float") from None


def exponent(x: Number, name: str) -> Number:
    """Check a distortion exponent (at least 1) and normalize it.

    A whole exponent becomes an ``int`` and is raised exactly, so one above
    MAX_EXACT_EXPONENT is refused here, before any power is taken.  Other
    exponents are raised in floats and must fit one.
    """
    if x < 1:
        raise ValueError(f"need {name} >= 1")
    if (isinstance(x, float) and x.is_integer()
            or isinstance(x, Fraction) and x.denominator == 1):
        x = int(x)
    if isinstance(x, int):
        if x > MAX_EXACT_EXPONENT:
            raise ValueError(f"whole {name} must be at most {MAX_EXACT_EXPONENT}"
                             f" to be raised exactly")
        return x
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    return x


def tolerance(values: Iterable[Number], tol: float = TABLE_TOL) -> float:
    """The one exactness rule: 0 when every value is exact, else ``tol``.

    A table, a mass vector or a compared pair is exact when all its values
    are exact; exact values compare directly, all others within TABLE_TOL
    (tables and masses) or VALUE_TOL (values).
    """
    return 0 if all(map(is_exact, values)) else tol


def _close(a: Number, b: Number, tol: float) -> bool:
    # a zero tolerance compares directly, with no Fraction difference
    return abs(a - b) <= tol if tol else a == b


def values_close(a: Number, b: Number, tol: float = VALUE_TOL) -> bool:
    """Equality of two values: exact for an exact pair, else within tol."""
    return _close(a, b, tolerance((a, b), tol))


def check_dense_size(space: "FiniteSpace") -> None:
    """Refuse a space too large for a dense table or a walk over its subsets."""
    if len(space) > MAX_DENSE_POINTS:
        raise TooManyPointsError(f"dense tables and subset walks are capped at "
                                 f"{MAX_DENSE_POINTS} points, got {len(space)}")


@dataclass(frozen=True)
class FiniteSpace:
    """Ordered finite point set; subsets are encoded as bitmasks.

    Bit i of a mask corresponds to ``points[i]``.  Labels must be unique
    and there must be at least one; masks are Python ints, so the number of
    points is unbounded (only dense capacity tables are capped).
    """

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise EmptySpaceError("a space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise DuplicateLabelError(f"duplicate point labels in {self.points}")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    def __len__(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SpaceMismatchError(f"point {label!r} is not in {self.points}") from None

    def mask(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def subset(self, labels: Iterable[str]) -> "Subset":
        return Subset(self, self.mask(labels))

    def subset_of_mask(self, mask: int) -> "Subset":
        return Subset(self, mask)

    @property
    def empty(self) -> "Subset":
        return Subset(self, 0)

    @property
    def full(self) -> "Subset":
        return Subset(self, self.full_mask)

    def all_masks(self) -> range:
        check_dense_size(self)
        return range(1 << len(self.points))


def make_space(labels: Sequence[str]) -> FiniteSpace:
    """Build a space from unique labels."""
    return FiniteSpace(tuple(labels))


@dataclass(frozen=True)
class Subset:
    """A subset of a FiniteSpace, stored as a bitmask over point indices."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.space.full_mask:
            raise SpaceMismatchError(f"mask {self.mask:#x} has bits beyond the space")


def _require_same_space(a: FiniteSpace, b: FiniteSpace) -> None:
    if a is b:
        return
    if a.points != b.points:
        raise SpaceMismatchError(f"space mismatch: {a.points} vs {b.points}")


def _mask_of(space: FiniteSpace, subset: Union[Subset, int]) -> int:
    if isinstance(subset, Subset):
        _require_same_space(space, subset.space)
        return subset.mask
    mask = int(subset)
    if not 0 <= mask <= space.full_mask:
        raise SpaceMismatchError(f"mask {mask:#x} has bits beyond the space")
    return mask


@dataclass(frozen=True)
class Act:
    """A real-valued function on a space's points (always a finite step function)."""

    space: FiniteSpace
    values: tuple[Number, ...]

    def __post_init__(self):
        if len(self.values) != len(self.space):
            raise SpaceMismatchError(
                f"act has {len(self.values)} values for {len(self.space)} points")
        for v in self.values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"act values must be finite, got {v}")

    @cached_property
    def chain_blocks(self) -> tuple[tuple[int, Number], ...]:
        """Points grouped by value as (mask, value) blocks, values descending.

        Acts are immutable, so the grouping is computed once per act and
        shared by every integral taken of it.
        """
        by_value: dict = {}
        for i, v in enumerate(self.values):
            by_value[v] = by_value.get(v, 0) | 1 << i
        return tuple((by_value[v], v) for v in sorted(by_value, reverse=True))

    @cached_property
    def exact_form(self) -> Optional[tuple[list[int], int]]:
        """The values as integer numerators over one denominator, or None
        (see ``_exact_form``); computed once per act."""
        return _exact_form(self.values)

    @cached_property
    def exact_chain(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int, bool]]:
        """The descending chain in the exact form, or None without one.

        Returns the cumulative level-set masks, the integer step down from
        each level's numerator to the next one's (to 0 after the last; a
        zero step is left out), the denominator, and whether every step is
        a difference of ints in ``chain_blocks`` (whose block values are
        each block's first value).
        """
        if self.exact_form is None:
            return None
        nums, den = self.exact_form
        blocks: dict = {}
        for i, v in enumerate(nums):
            block = blocks.setdefault(v, [0, i])
            block[0] |= 1 << i
        levels = sorted(blocks, reverse=True)
        whole = [type(self.values[blocks[v][1]]) is int for v in levels] + [True]
        cums, steps = [], []
        cum = 0
        ints = True
        for k, value in enumerate(levels):
            cum |= blocks[value][0]
            nxt = levels[k + 1] if k + 1 < len(levels) else 0
            if value != nxt:
                cums.append(cum)
                steps.append(value - nxt)
                ints = ints and whole[k] and whole[k + 1]
        return tuple(cums), tuple(steps), den, ints

    @property
    def sup_norm(self) -> Number:
        return max(abs(v) for v in self.values)

    def at(self, label: str) -> Number:
        return self.values[self.space.index(label)]

    def __add__(self, other: "Act") -> "Act":
        _require_same_space(self.space, other.space)
        return Act(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Act") -> "Act":
        _require_same_space(self.space, other.space)
        return Act(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c: Number) -> "Act":
        return Act(self.space, tuple(c * v for v in self.values))

    def map(self, fn: Callable[[Number], Number]) -> "Act":
        return Act(self.space, tuple(fn(v) for v in self.values))


def constant_act(space: FiniteSpace, c: Number) -> Act:
    return Act(space, (c,) * len(space))


def indicator(space: FiniteSpace, subset: Union[Subset, int]) -> Act:
    """The 0/1 act of a subset: 1 on its points, 0 elsewhere."""
    mask = _mask_of(space, subset)
    return Act(space, tuple(1 if mask >> i & 1 else 0 for i in range(len(space))))


@dataclass(frozen=True)
class PointMap:
    """A total map between the points of two finite spaces."""

    domain: FiniteSpace
    codomain: FiniteSpace
    mapping: Mapping[str, str]

    def __post_init__(self):
        missing = [p for p in self.domain.points if p not in self.mapping]
        if missing:
            raise SpaceMismatchError(f"map is not total, missing {missing}")
        for src, dst in self.mapping.items():
            self.domain.index(src)
            if dst not in self.codomain.points:
                raise SpaceMismatchError(f"map sends {src!r} outside the codomain: {dst!r}")

    def __call__(self, label: str) -> str:
        return self.mapping[label]

    def preimage_mask(self, mask_in_codomain: int) -> int:
        m = 0
        for i, p in enumerate(self.domain.points):
            j = self.codomain.index(self.mapping[p])
            if mask_in_codomain >> j & 1:
                m |= 1 << i
        return m

    def preimage_masks(self) -> list[int]:
        """The preimage of every codomain mask, in mask order."""
        check_dense_size(self.codomain)
        of_point = [0] * len(self.codomain)
        for i, p in enumerate(self.domain.points):
            of_point[self.codomain.index(self.mapping[p])] |= 1 << i
        masks = [0]
        for m in of_point:
            masks += [q | m for q in masks]
        return masks

    def then(self, after: "PointMap") -> "PointMap":
        """Composition: first self, then `after`."""
        _require_same_space(self.codomain, after.domain)
        return PointMap(self.domain, after.codomain,
                        {p: after.mapping[self.mapping[p]] for p in self.domain.points})


def identity_map(space: FiniteSpace) -> PointMap:
    return PointMap(space, space, {p: p for p in space.points})


def precompose_act(f: Act, h: PointMap) -> Act:
    """Pull an act on the codomain back along h: returns f of h."""
    _require_same_space(f.space, h.codomain)
    return Act(h.domain, tuple(f.at(h.mapping[p]) for p in h.domain.points))


#: marks an exact form not yet derived
_PENDING = object()


class Capacity:
    """A monotone set function with value 0 on the empty set and 1 on the full set.

    Two internal representations share one interface: a dense table over the
    whole powerset (arbitrary monotone set functions, spaces up to 20 points)
    and a singleton-mass vector (additive capacities, any space size).
    Either form of an exact capacity also has an exact form (see
    ``exact_form``): a caller that already holds it, such as a checked
    constructor, hands it over as ``exact`` (None for values without one),
    and any other capacity derives it on first use.
    """

    __slots__ = ("space", "_table", "_masses", "_additive", "_exact", "_hash")

    def __init__(self, space: FiniteSpace, *, table: tuple = None,
                 masses: tuple = None, exact=_PENDING):
        if (table is None) == (masses is None):
            raise ValueError("exactly one of table/masses must be given")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_masses", masses)
        object.__setattr__(self, "_additive", True if masses is not None else None)
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Capacity is immutable")

    @property
    def exact_form(self) -> Optional[tuple[list[int], int]]:
        """The table or masses as integer numerators over one denominator.

        None for a capacity holding a float, or one whose denominators are
        too coprime to share one (see ``_exact_form``).
        """
        if self._exact is _PENDING:
            values = self._table if self._masses is None else self._masses
            object.__setattr__(self, "_exact", _exact_form(values))
        return self._exact

    @property
    def is_additive(self) -> bool:
        """True when every value is the sum of its points' singleton values.

        A table is scanned on first use only; most tables are integrated
        without anyone asking.
        """
        if self._additive is None:
            keys, tol = _keys(self._table, self.exact_form)
            object.__setattr__(self, "_additive", _table_is_additive(keys, tol))
        return self._additive

    def value(self, mask: int) -> Number:
        if self._table is not None:
            return self._table[mask]
        total = 0
        m = mask
        while m:
            low = m & -m
            total += self._masses[low.bit_length() - 1]
            m ^= low
        return total

    def __call__(self, subset: Union[Subset, int]) -> Number:
        return self.value(_mask_of(self.space, subset))

    def is_null(self, mask: int) -> bool:
        """Whether the value on a subset is 0 (within TABLE_TOL for floats)."""
        form = self.exact_form
        if form is None:
            return values_close(self.value(mask), 0, TABLE_TOL)
        if self._masses is None:
            return form[0][mask] == 0
        return not sum(n for i, n in enumerate(form[0]) if mask >> i & 1)

    def singleton_masses(self) -> tuple[Number, ...]:
        if self._masses is not None:
            return self._masses
        return tuple(self._table[1 << i] for i in range(len(self.space)))

    def equals(self, other: "Capacity", tol: float = TABLE_TOL) -> bool:
        """Pointwise table equality (exact pairs compare exactly, floats by tol).

        Two exact forms of the same kind compare as integer lists,
        cross-multiplied when their denominators differ; a table and a mass
        vector compare pointwise.
        """
        if self.space.points != other.space.points:
            return False
        mine, theirs = self.exact_form, other.exact_form
        same_kind = (self._masses is None) == (other._masses is None)
        if mine is not None and theirs is not None and same_kind:
            (a, da), (b, db) = mine, theirs
            if da == db:
                return a == b
            return [x * db for x in a] == [y * da for y in b]
        if self._masses is not None and other._masses is not None:
            return all(values_close(a, b, tol)
                       for a, b in zip(self._masses, other._masses))
        return all(values_close(self.value(m), other.value(m), tol)
                   for m in self.space.all_masks())

    def __eq__(self, other):
        return isinstance(other, Capacity) and self.equals(other, tol=0.0)

    def __hash__(self):
        # equal set functions share singleton values in either form: no table
        # scan; computed once
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.space.points, self.singleton_masses())))
        return self._hash

    def __repr__(self):
        kind = "additive" if self._masses is not None else "table"
        values = self._masses if self._masses is not None else self._table
        backend = "float" if tolerance(values) else "rational"
        return f"Capacity({kind}, {len(self.space)} points, {backend})"


def _exact_form(values: Sequence[Number]) -> Optional[tuple[list[int], int]]:
    """Exact values as integer numerators over one common denominator.

    The denominator is the least common multiple of the values' own, so the
    numerators compare, add and multiply exactly like the values they stand
    for, at integer speed.  None for values holding a float, and for exact
    values whose common denominator would be far longer than their longest
    own one (many coprime ones), because then every numerator would be long.
    """
    # the type scan runs in C; only another type needs the full check
    if (not set(map(type, values)) <= {int, Fraction}
            and not all(map(is_exact, values))):
        return None
    dens = {v.denominator for v in values}
    limit = 2 * max(dens).bit_length() + 64
    common = 1
    for d in dens:
        common = math.lcm(common, d)
        if common.bit_length() > limit:
            return None
    scale = {d: common // d for d in dens}
    return [v.numerator * scale[v.denominator] for v in values], common


def _keys(values: Sequence[Number], form) -> tuple[list, float]:
    """Comparison keys for values whose exact form is ``form``, and the
    tolerance they compare within.

    Values with an exact form compare on its numerators.  The others keep
    their values: exact ones with too coprime denominators compare exactly,
    and those holding a float within TABLE_TOL.
    """
    if form is not None:
        return form[0], 0
    return list(values), tolerance(values)


def _table_is_additive(keys: list, tol: float) -> bool:
    # additive iff every value splits off its lowest point's singleton: the
    # masks whose lowest point is i are h + 2h*k (h = 2**i); k = 0 is the
    # singleton itself
    h = 1
    while 3 * h < len(keys):
        whole = keys[3 * h::2 * h]
        split = list(map(add, keys[2 * h::2 * h], repeat(keys[h])))
        if whole != split and not all(map(_close, whole, split, repeat(tol))):
            return False
        h *= 2
    return True


def _cover_slices(n: int):
    """Slice pairs that together pair every mask lacking point i with the
    mask adding it, point by point: (i, lo, hi).

    Within a pair, masks ascend.  A point with few masks per run of 2h
    (h = 2**i) strides over whole runs, one pair per offset; one with long
    runs takes one pair per run, so no point needs more than sqrt(2**n)
    pairs.
    """
    size = 1 << n
    for i in range(n):
        h = 1 << i
        if 2 * h * h <= size:
            for r in range(h):
                yield i, slice(r, size, 2 * h), slice(r + h, size, 2 * h)
        else:
            for s in range(0, size, 2 * h):
                yield i, slice(s, s + h), slice(s + h, s + 2 * h)


def _check_monotone(space: FiniteSpace, table: Sequence[Number],
                    keys: list, tol: float) -> None:
    # cover pairs suffice, and the first failing one in (mask, point) order
    # is itself a witness
    first = None
    masks = range(len(keys))
    for i, lo, hi in _cover_slices(len(space)):
        below, above = keys[lo], keys[hi]
        # only a pair that decreases can fail, so the tolerance is applied
        # to those alone; within a slice the first failure has the least mask
        for j in compress(range(len(below)), map(gt, below, above)):
            if not _close(below[j], above[j], tol):
                pair = (masks[lo][j], i)
                if first is None or pair < first:
                    first = pair
                break
    if first is not None:
        mask, i = first
        above = mask | 1 << i
        raise MonotonicityError(
            mask, above,
            f"capacity decreases from {space.labels(mask)}"
            f" ({table[mask]}) to {space.labels(above)}"
            f" ({table[above]})")


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _values_and_form(values: Optional[Sequence], form, size: int) -> tuple:
    """The values a checked constructor checks, and their exact form.

    The form is derived from the values (see ``_exact_form``) unless handed
    over as (numerators, denominator), standing for numerator/denominator:
    then a count other than ``size`` is a SpaceMismatchError, a non-int a
    TypeError, a zero denominator a ZeroDivisionError, as for those values.
    One gcd brings it to the positive denominator ``_exact_form`` would
    derive, kept even where that would find the values too coprime to
    share one.  Values given with it must be exact and equal it; else they
    are its Fractions, one per distinct numerator (a point mass has two).
    """
    if form is None:
        if values is None:
            raise TypeError("a capacity needs its values or their exact form")
        return values, _exact_form(values)
    nums, den = form
    if len(nums) != size:
        raise SpaceMismatchError(f"exact form has {len(nums)} numerators, need {size}")
    if type(den) is not int or not set(map(type, nums)) <= {int}:
        raise TypeError("an exact form holds int numerators over an int denominator")
    if den == 0:
        raise ZeroDivisionError("exact form with denominator 0")
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    if values is None:
        fractions = {n: Fraction(n, den) for n in set(nums)}
        return list(map(fractions.__getitem__, nums)), (nums, den)
    if not (set(map(type, values)) <= {int, Fraction}
            and all(map(eq, map(mul, map(_numerator, values), repeat(den)),
                        map(mul, nums, map(_denominator, values))))):
        raise ValueError("values differ from the exact form handed over with them")
    return values, (nums, den)


def validate_capacity(space: FiniteSpace, table: Union[Mapping, Sequence],
                      *, form: Optional[tuple[Sequence[int], int]] = None) -> Capacity:
    """Check and build a capacity from a dense table.

    The table must cover every subset: a mapping whose keys are Subset
    objects or bitmask ints, or a sequence in mask order.  Additive
    capacities given by their masses go through ``additive_capacity``
    instead.  An exact table is checked on its exact form, which the
    capacity keeps.  A caller that holds that form hands it over as
    ``form`` = (numerators, denominator) in mask order, with a table that
    must equal it; it is checked (see ``_values_and_form``), and then goes
    through the same normalization and monotonicity checks as a derived one.
    """
    check_dense_size(space)
    full = space.full_mask
    if isinstance(table, Mapping):
        dense: list = [None] * (full + 1)
        for key, val in table.items():
            # an int key in range is a mask already; any other key is checked
            dense[key if type(key) is int and 0 <= key <= full
                  else _mask_of(space, key)] = val
        if any(v is None for v in dense):
            raise SpaceMismatchError("table does not cover every subset")
    elif len(table) == full + 1:
        dense = table
    else:
        raise SpaceMismatchError("table does not cover every subset")
    dense, form = _values_and_form(dense, form, full + 1)
    keys, tol = _keys(dense, form)
    if not (_close(keys[0], 0, tol) and _close(keys[-1], form[1] if form else 1, tol)):
        raise NormalizationError(
            f"need table(empty)=0 and table(full)=1, got {dense[0]} and {dense[-1]}")
    _check_monotone(space, dense, keys, tol)
    return Capacity(space, table=tuple(dense), exact=form)


def additive_capacity(space: FiniteSpace,
                      masses: Union[Mapping[str, Number], Sequence[Number], None] = None,
                      *, form: Optional[tuple[Sequence[int], int]] = None) -> Capacity:
    """Check and build an additive capacity from its singleton masses.

    Masses come as a mapping by point label or as a sequence in point
    order; none may be negative and they must sum to 1.  Exact masses are
    checked on their exact form, which the capacity keeps.  As in
    ``validate_capacity``, a caller holding that form hands it over as
    ``form``, with masses that equal it or without masses (then they are
    Fractions of it), and it goes through the same checks.
    """
    if isinstance(masses, Mapping):
        for p in space.points:
            if p not in masses:
                raise SpaceMismatchError(f"missing singleton value for {p!r}")
        foreign = [label for label in masses if label not in space._index]
        if foreign:
            raise SpaceMismatchError(f"singleton values for labels that are not "
                                     f"points: {', '.join(map(repr, foreign))}")
        masses = [masses[p] for p in space.points]
    elif masses is not None and len(masses) != len(space):
        raise SpaceMismatchError("one mass per point required")
    masses, form = _values_and_form(masses, form, len(space))
    masses = tuple(masses)
    keys, tol = _keys(masses, form)
    for i in compress(range(len(keys)), map(gt, repeat(0), keys)):
        if not _close(keys[i], 0, tol):
            raise MonotonicityError(
                0, 1 << i, f"negative mass {masses[i]} at {space.points[i]!r}")
    if not _close(sum(keys), form[1] if form else 1, tol):
        raise NormalizationError(f"singleton masses sum to {sum(masses)}, not 1")
    return Capacity(space, masses=masses, exact=form)


def distort(u: Capacity, h: Callable[[Number], Number]) -> Capacity:
    """Post-compose a capacity with a nondecreasing reweighting of [0, 1].

    h must fix the endpoints and be nondecreasing on the capacity's attained
    values (all that is ever evaluated); the images decide whether those
    checks are exact.
    """
    space = u.space
    masks = space.all_masks()
    lut = {v: h(v) for v in sorted({u.value(m) for m in masks})}
    images = list(lut.values())
    tol = tolerance(images)
    h0, h1 = lut[u.value(0)], lut[u.value(space.full_mask)]
    if not (_close(h0, 0, tol) and _close(h1, 1, tol)):
        raise EndpointError(f"distortion must fix endpoints, got h(0)={h0}, h(1)={h1}")
    for a, b in zip(images, images[1:]):
        if a > b and not _close(a, b, tol):
            raise MonotonicityError(0, 0, f"distortion decreases: {a} > {b}")
    return Capacity(space, table=tuple(lut[u.value(m)] for m in masks))


def pushforward(u: Capacity, h: PointMap) -> Capacity:
    """Transport a capacity along a point map: result(B) = u(preimage of B).

    A mass vector adds each point's mass into its image's, a table reads
    each subset's preimage; the same step carries the exact form.
    """
    _require_same_space(u.space, h.domain)
    target = h.codomain
    form = u.exact_form
    if u._masses is not None:
        images = [target.index(h.mapping[p]) for p in u.space.points]

        def push(values):
            out = [0] * len(target)
            for j, m in zip(images, values):
                out[j] += m
            return out

        return Capacity(target, masses=tuple(push(u._masses)),
                        exact=(push(form[0]), form[1]) if form else _PENDING)
    pre = h.preimage_masks()
    return Capacity(target, table=tuple(u._table[m] for m in pre),
                    exact=([form[0][m] for m in pre], form[1]) if form else _PENDING)
