"""Finite measurable spaces, acts, and capacities with exact arithmetic.

Values are either exact rationals (``fractions.Fraction``, the default for
all law checking) or 64-bit floats (distortions with non-integer exponents,
exp/log utilities, quadrature).  Mixed arithmetic silently promotes to
float, which is the intended behaviour.  Whether a comparison is exact or
within a tolerance is decided here, by ``tolerance``, and nowhere else.

An exact capacity stores its values once, in an exact form built by
``_exact_form``: integer numerators over one common denominator, which
compare, add and multiply at integer speed; its values are their Fractions.
An exact act has the same form.  It keeps what it was built from, values or
a form, and derives the other once, on first use.
"""

from __future__ import annotations

import math
import re
import struct
from functools import cache, reduce
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, attrgetter, gt, ne, or_, sub
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
#: largest decimal exponent magnitude parsed, Python's own limit on the
#: digits of an integer printed as text; a larger one is refused
MAX_DECIMAL_EXPONENT = 4300
#: the exponent of a number's decimal text, as ``Fraction`` reads it
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
#: most characters of a value's text that an error message quotes
ECHO_CHARS = 40
#: a mask's binary digits, as ``bin`` writes them, to ``point_flags``' bytes
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


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


def _echo(text: str) -> str:
    # the text as a message quotes it: a long one is cut to ECHO_CHARS and "…"
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "…"


def as_exact(x: Union[str, int, float, Fraction]) -> Fraction:
    """Parse a decimal string, "p/q" string, integer or float into a Fraction.

    A float is read through its decimal text, so 0.1 becomes 1/10.
    Booleans are refused: they are not numbers, though Python counts them
    as integers.  A decimal exponent above MAX_DECIMAL_EXPONENT in
    magnitude is refused before parsing, which would build 10**exponent.
    An error message quotes at most ECHO_CHARS characters of the text.
    """
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    text = str(x)
    # only the last e can start an exponent
    exp = _DECIMAL_EXPONENT.match(text, max(text.rfind("e"), text.rfind("E"), 0))
    if exp and abs(int(exp[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{_echo(text)} has a decimal exponent above "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ValueError as exc:
        # Fraction quotes a literal it cannot read in full
        if len(text) <= ECHO_CHARS or not str(exc).startswith("Invalid literal"):
            raise
        raise ValueError(f"Invalid literal for Fraction: {_echo(repr(text))}") from None


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
        raise ValueError(f"{_echo(str(x))} is too large for a float") from None


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


class once:
    """``functools.cached_property`` without the lock it takes on every
    first use on Python 3.10 and 3.11: the value goes into ``__dict__``."""

    def __init__(self, fn: Callable):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Frozen:
    """Instances refuse attribute assignment and deletion.

    A constructor stores its attributes straight into ``self.__dict__``,
    past the refusal.
    """

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _refuse


class Value:
    """Instances of one class are equal when they agree on the attributes
    their class's ``_value`` names, and hash by those attributes; a class
    that sets ``__hash__ = None`` stays unhashable."""

    _value: tuple[str, ...]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = attrgetter(*self._value)
        return key(self) == key(other)

    def __hash__(self):
        return hash(attrgetter(*self._value)(self))


def point_flags(mask: int) -> bytes:
    """Byte i is 1 if point i is in the mask, else 0, up to its highest point."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)


def check_dense_size(space: "FiniteSpace") -> None:
    """Refuse a space too large for a dense table or a walk over its subsets."""
    if len(space) > MAX_DENSE_POINTS:
        raise TooManyPointsError(f"dense tables and subset walks are capped at "
                                 f"{MAX_DENSE_POINTS} points, got {len(space)}")


class FiniteSpace(Value, Frozen):
    """Ordered finite point set; subsets are encoded as bitmasks.

    Bit i of a mask corresponds to ``points[i]``.  Labels must be unique
    and there must be at least one; masks are Python ints, so the number of
    points is unbounded (only dense capacity tables are capped).  Spaces
    compare and hash by their points.
    """

    _value = ("points",)

    def __init__(self, points: tuple[str, ...]):
        if not points:
            raise EmptySpaceError("a space needs at least one point")
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):  # a repeated label is indexed at its last place
            dup = next(p for i, p in enumerate(points) if index[p] != i)
            raise DuplicateLabelError(f"duplicate point label {_echo(repr(dup))}")
        self.__dict__.update(points=points, _index=index)

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
        return tuple(compress(self.points, point_flags(mask)))

    def subset(self, labels: Iterable[str]) -> "Subset":
        return Subset(self, self.mask(labels))

    def all_masks(self) -> range:
        check_dense_size(self)
        return range(1 << len(self.points))


def make_space(labels: Sequence[str]) -> FiniteSpace:
    """Build a space from unique labels."""
    return FiniteSpace(tuple(labels))


class Subset(Value, Frozen):
    """A subset of a FiniteSpace, stored as a bitmask over point indices;
    subsets compare and hash by space and mask."""

    _value = ("space", "mask")

    def __init__(self, space: FiniteSpace, mask: int):
        if not 0 <= mask <= space.full_mask:
            raise SpaceMismatchError(f"mask {mask:#x} has bits beyond the space")
        self.__dict__.update(space=space, mask=mask)


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


class Act(Value, Frozen):
    """A real-valued function on a space's points (always a finite step
    function); acts compare and hash by space and values.

    An act is built from its values or from ``form`` = (numerators,
    denominator), checked by ``_checked_form``.  It derives the other on
    first use: the form by ``_exact_form``, the values as Fractions.  A list
    of numerators that the check leaves reduced is kept as given, not
    copied, as ``Capacity`` keeps its list: the caller hands it over and
    does not change it afterwards.  So an act that ``xi`` builds from one
    column of a space's batch as it stands shares that column's list;
    neither the act nor the space changes it.  Sums, differences and exact
    multiples of acts with forms stay on integers.
    """

    _value = ("space", "values")

    def __init__(self, space: FiniteSpace, values: Optional[tuple[Number, ...]] = None,
                 *, form: Optional[tuple[Sequence[int], int]] = None):
        if (values is None) == (form is None):
            raise TypeError("give an act's values or its exact form, not both")
        if form is not None:
            nums, den = _checked_form(form, len(space))
            if type(nums) is not list:
                nums = list(nums)
            self.__dict__.update(space=space, exact_form=(nums, den))
            return
        if len(values) != len(space):
            raise SpaceMismatchError(
                f"act has {len(values)} values for {len(space)} points")
        for v in values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"act values must be finite, got {v}")
        self.__dict__.update(space=space, values=values)

    @once
    def values(self) -> tuple[Number, ...]:
        """The values of an act built from its form: one Fraction each."""
        nums, den = self.exact_form
        return tuple(Fraction(n, den) for n in nums)

    @once
    def chain_blocks(self) -> tuple[tuple[int, Number], ...]:
        """Points grouped by value as (mask, value) blocks, values descending.

        Acts are immutable, so the grouping is computed once per act and
        shared by every integral taken of it.
        """
        by_value: dict = {}
        for i, v in enumerate(self.values):
            by_value[v] = by_value.get(v, 0) | 1 << i
        return tuple((by_value[v], v) for v in sorted(by_value, reverse=True))

    @once
    def exact_form(self) -> Optional[tuple[list[int], int]]:
        """The values as integer numerators over one denominator, or None
        (see ``_exact_form``); derived once per act built from values."""
        return _exact_form(self.values)

    @once
    def exact_chain(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """The descending chain in the exact form, or None without one.

        Returns the cumulative level-set masks, the integer step down from
        each level's numerator to the next one's (to 0 after the last; a
        zero step is left out), and the denominator.
        """
        if self.exact_form is None:
            return None
        nums, den = self.exact_form
        blocks: dict = {}
        for i, v in enumerate(nums):
            blocks[v] = blocks.get(v, 0) | 1 << i
        levels = sorted(blocks, reverse=True)
        cums, steps = [], []
        cum = 0
        for k, value in enumerate(levels):
            cum |= blocks[value]
            nxt = levels[k + 1] if k + 1 < len(levels) else 0
            if value != nxt:
                cums.append(cum)
                steps.append(value - nxt)
        return tuple(cums), tuple(steps), den

    @property
    def sup_norm(self) -> Number:
        return max(abs(v) for v in self.values)

    def at(self, label: str) -> Number:
        return self.values[self.space.index(label)]

    def _combine(self, other: "Act", sign: int) -> "Act":
        # other's numerators, times sign, added to self's over their lcm
        _require_same_space(self.space, other.space)
        a, b = self.exact_form, other.exact_form
        if a is None or b is None:
            op = add if sign > 0 else sub
            return Act(self.space, tuple(map(op, self.values, other.values)))
        (na, da), (nb, db) = a, b
        den = da * db // math.gcd(da, db)
        sa, sb = den // da, sign * (den // db)
        return Act(self.space, form=([x * sa + y * sb for x, y in zip(na, nb)], den))

    def __add__(self, other: "Act") -> "Act":
        return self._combine(other, 1)

    def __sub__(self, other: "Act") -> "Act":
        return self._combine(other, -1)

    def scale(self, c: Number) -> "Act":
        form = self.exact_form if is_exact(c) else None
        if form is None:
            return Act(self.space, tuple(c * v for v in self.values))
        k = c.numerator
        return Act(self.space, form=([k * n for n in form[0]], form[1] * c.denominator))

    def map(self, fn: Callable[[Number], Number]) -> "Act":
        return Act(self.space, tuple(fn(v) for v in self.values))


def constant_act(space: FiniteSpace, c: Number) -> Act:
    return Act(space, (c,) * len(space))


def indicator(space: FiniteSpace, subset: Union[Subset, int]) -> Act:
    """The 0/1 act of a subset: 1 on its points, 0 elsewhere."""
    return Act(space, tuple(point_flags(_mask_of(space, subset)).ljust(len(space), b"\0")))


class PointMap(Value, Frozen):
    """A total map between the points of two finite spaces, stored as the
    codomain index of each domain point (``images``), never as the caller's
    mapping; maps compare by domain, codomain and images, and are unhashable."""

    _value = ("domain", "codomain", "images")
    __hash__ = None

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace,
                 mapping: Mapping[str, str]):
        missing = [p for p in domain.points if p not in mapping]
        if missing:
            raise SpaceMismatchError(f"map is not total, missing {missing}")
        index = codomain._index
        for src, dst in mapping.items():
            domain.index(src)
            if dst not in index:
                raise SpaceMismatchError(f"map sends {src!r} outside the codomain: {dst!r}")
        images = tuple(index[mapping[p]] for p in domain.points)
        self.__dict__.update(domain=domain, codomain=codomain, images=images)

    @property
    def mapping(self) -> dict[str, str]:
        return {p: self(p) for p in self.domain.points}

    def __call__(self, label: str) -> str:
        return self.codomain.points[self.images[self.domain.index(label)]]

    @once
    def _point_preimages(self) -> list[int]:
        of_point = [0] * len(self.codomain)
        for i, j in enumerate(self.images):
            of_point[j] |= 1 << i
        return of_point

    def preimage_mask(self, mask_in_codomain: int) -> int:
        return reduce(or_, compress(self._point_preimages, point_flags(mask_in_codomain)), 0)

    def preimage_masks(self) -> list[int]:
        """The preimage of every codomain mask, in mask order."""
        check_dense_size(self.codomain)
        masks = [0]
        for m in self._point_preimages:
            masks += [q | m for q in masks]
        return masks

    def then(self, after: "PointMap") -> "PointMap":
        """Composition: first self, then `after`."""
        _require_same_space(self.codomain, after.domain)
        points = after.codomain.points
        return PointMap(self.domain, after.codomain, {
            p: points[after.images[j]] for p, j in zip(self.domain.points, self.images)})


def identity_map(space: FiniteSpace) -> PointMap:
    return PointMap(space, space, {p: p for p in space.points})


def precompose_act(f: Act, h: PointMap) -> Act:
    """Pull an act on the codomain back along h: returns f of h."""
    _require_same_space(f.space, h.codomain)
    return Act(h.domain, tuple(map(f.values.__getitem__, h.images)))


class Capacity(Frozen):
    """A monotone set function with value 0 on the empty set and 1 on the full set.

    Two internal representations share one interface: a dense table over the
    whole powerset (arbitrary monotone set functions, spaces up to 20 points)
    and a singleton-mass vector (additive capacities, any space size).
    Either one is stored once.  With ``den`` set it holds integer numerators
    over ``den`` (see ``exact_form``); with ``den`` None it holds the values
    themselves, floats or exact values too coprime to share one denominator.
    The constructor derives the form from the values when no ``den`` is
    given (see ``_exact_form``), and takes a list of int numerators over a
    given ``den`` unchecked.  With ``derive`` False it keeps the values: a
    caller that has found they have no form derives none again.
    """

    def __init__(self, space: FiniteSpace, *, table: Sequence = None,
                 masses: Sequence = None, den: Optional[int] = None,
                 derive: bool = True):
        if (table is None) == (masses is None):
            raise ValueError("exactly one of table/masses must be given")
        stored = table if masses is None else masses
        if den is None:
            stored, den = derive and _exact_form(stored) or (tuple(stored), None)
        elif type(stored) is not list:
            stored = list(stored)
        self.__dict__.update(space=space, _table=stored if masses is None else None,
                             _masses=None if masses is None else stored, _den=den)

    @property
    def exact_form(self) -> Optional[tuple[list[int], int]]:
        """The table or masses as integer numerators over one denominator.

        None for a capacity holding a float, or one whose denominators are
        too coprime to share one (see ``_exact_form``).
        """
        if self._den is None:
            return None
        return (self._table if self._masses is None else self._masses), self._den

    def _keys(self) -> tuple[Sequence, float]:
        """The stored table or masses, and the tolerance they compare within:
        numerators and exact values directly, floats within TABLE_TOL."""
        stored = self._table if self._masses is None else self._masses
        return stored, 0 if self._den else tolerance(stored)

    @once
    def is_additive(self) -> bool:
        """True when every value is the sum of its points' singleton values.

        A table is scanned on first use only; most tables are integrated
        without anyone asking.
        """
        return self._masses is not None or _table_is_additive(*self._keys())

    def _stored_value(self, mask: int):
        # the table entry, or the masses' sum, floats uncompensated in point
        # order; both forms refuse a mask below 0 or past the points
        if mask >> len(self.space.points):
            raise IndexError(f"mask {mask:#x} has bits beyond the space")
        if self._table is not None:
            return self._table[mask]
        masses = compress(self._masses, point_flags(mask))
        return sum(masses) if self._den else reduce(add, masses, 0)

    def value(self, mask: int) -> Number:
        stored = self._stored_value(mask)
        return stored if self._den is None else Fraction(stored, self._den)

    def __call__(self, subset: Union[Subset, int]) -> Number:
        return self.value(_mask_of(self.space, subset))

    def is_null(self, mask: int) -> bool:
        """Whether the value on a subset is 0 (within TABLE_TOL for floats)."""
        stored = self._stored_value(mask)
        return stored == 0 if self._den else values_close(stored, 0, TABLE_TOL)

    def _singleton_keys(self) -> Sequence:
        # what is stored for each point's singleton
        if self._masses is not None:
            return self._masses
        return [self._table[1 << i] for i in range(len(self.space))]

    def singleton_masses(self) -> tuple[Number, ...]:
        keys, den = self._singleton_keys(), self._den
        return tuple(keys) if den is None else tuple(Fraction(n, den) for n in keys)

    def _subset_keys(self) -> Sequence:
        # the stored value of every subset in mask order: a mass vector's
        # subset sums are added lowest point first, as ``value`` adds them
        if self._table is not None:
            return self._table
        sums = [0]
        for m in self._masses:
            sums += [s + m for s in sums]
        return sums

    def equals(self, other: "Capacity", tol: float = TABLE_TOL) -> bool:
        """Pointwise table equality (exact pairs compare exactly, floats by tol).

        Two mass vectors compare point by point, anything else subset by
        subset, a mass vector expanded to its subset sums.  Two exact forms
        compare as integer lists, cross-multiplied when their denominators
        differ; other values compare as values.
        """
        if self.space.points != other.space.points:
            return False
        a, b = self._masses, other._masses
        if a is None or b is None:
            a, b = self._subset_keys(), other._subset_keys()
        da, db = self._den, other._den
        if da and db:
            return a == b if da == db else [x * db for x in a] == [y * da for y in b]
        a = a if da is None else [Fraction(x, da) for x in a]
        b = b if db is None else [Fraction(y, db) for y in b]
        return all(map(values_close, a, b, repeat(tol)))

    def __eq__(self, other):
        return isinstance(other, Capacity) and self.equals(other, tol=0.0)

    @once
    def _hash(self) -> int:
        # equal set functions share singleton values in either form, hashed
        # as correctly rounded floats: no table scan, no Fraction
        singles, den = self._singleton_keys(), self._den
        floats = [n / den for n in singles] if den else list(map(float, singles))
        return hash((self.space.points, tuple(floats)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        kind = "additive" if self._masses is not None else "table"
        backend = "float" if self._keys()[1] else "rational"
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


def _table_is_additive(keys: Sequence, tol: float) -> bool:
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


@cache
def _cover_slices(n: int) -> tuple[tuple[int, slice, slice], ...]:
    """Slice pairs of a table's 2**n masks that together pair every mask
    lacking point i with the mask adding it, point by point: (i, lo, hi).

    Within a pair, masks ascend.  A point with few masks per run of 2h
    (h = 2**i) strides over whole runs, one pair per offset; one with long
    runs takes one pair per run, so no point needs more than sqrt(2**n)
    pairs.  The plan is built once per n.
    """
    size = 1 << n
    pairs = []
    for i in range(n):
        h = 1 << i
        if 2 * h * h <= size:
            pairs += [(i, slice(r, size, 2 * h), slice(r + h, size, 2 * h))
                      for r in range(h)]
        else:
            pairs += [(i, slice(s, s + h), slice(s + h, s + 2 * h))
                      for s in range(0, size, 2 * h)]
    return tuple(pairs)


def _packed_monotone(n: int, keys: Sequence) -> bool:
    """True if no entry of a table of 2**n ``keys`` exceeds the entry at its
    mask with a point added, decided in whole-table integer passes; False if
    one may, or if the keys are not all ints in [0, 2**31).

    The table is packed into one int, a signed field of w bytes an entry,
    the narrowest that holds it; a key in range leaves its field's top
    (guard) bit clear.  For point i the table shifted down by 2**i fields,
    plus a guard bit in every field, less the table, holds
    2**(8w-1) + above - below in each field and never borrows, so a cleared
    guard bit at a mask lacking i is a decrease.  The per-point patterns of
    those guard bits are built per call: kept for 16 points they would hold
    about 2 MB.
    """
    # 8-byte fields measured slower than the sweep; ``struct`` is loaded
    # at start-up, where ``array`` would add a module
    for code, width in (("h", 2), ("i", 4)):
        try:
            packed = struct.pack(f"<{len(keys)}{code}", *keys)
            break
        except struct.error:
            continue  # a key out of range, a float or a Fraction
    else:
        return False
    table = int.from_bytes(packed, "little")
    guard, zero = bytes(width - 1) + b"\x80", bytes(width)
    guards = int.from_bytes(guard * len(keys), "little")
    if table & guards:
        return False  # a negative key
    below = guards - table
    for i in range(n):
        h = 1 << i
        lacking = int.from_bytes((guard * h + zero * h) * (len(keys) >> i + 1), "little")
        if (table >> 8 * width * h) + below & lacking != lacking:
            return False
    return True


def _first_decrease(n: int, keys: Sequence, tol: float) -> Optional[tuple[int, int]]:
    """The first pair (mask, point i) in that order whose entry in a table of
    2**n ``keys`` exceeds, beyond ``tol``, the entry at mask | 1 << i, or
    None: the one monotonicity sweep, over cover pairs alone.  Exact int
    keys that ``_packed_monotone`` finds monotone skip the sweep; any other
    keys, and a table it flags, are swept, so the witness is the sweep's.
    ``tol`` bounds each cover pair, so a nested pair n steps apart may fall
    by up to n * ``tol``: for a float table at most ``MAX_DENSE_POINTS`` *
    ``TABLE_TOL`` = 2e-11, far below ``VALUE_TOL``."""
    if tol == 0 and _packed_monotone(n, keys):
        return None
    first = None
    masks = range(len(keys))
    for i, lo, hi in _cover_slices(n):
        below, above = keys[lo], keys[hi]
        # a C-speed scan skips monotone slices: a 16-point table checks in 27 ms, not 33-38
        if not any(map(gt, below, above)):
            continue
        # only a pair that decreases can fail, so the tolerance is applied
        # to those alone; within a slice the first failure has the least mask
        for j in compress(range(len(below)), map(gt, below, above)):
            if not _close(below[j], above[j], tol):
                pair = (masks[lo][j], i)
                if first is None or pair < first:
                    first = pair
                break
    return first


def _checked_form(form: tuple[Sequence[int], int], size: int) -> tuple[Sequence[int], int]:
    """An exact form handed to a checked constructor, as ``_exact_form``
    would derive it.

    The form is (numerators, denominator), standing for numerator /
    denominator: a count other than ``size`` is a SpaceMismatchError, a
    non-int a TypeError, a zero denominator a ZeroDivisionError, as for
    those values.  Then ``_reduced`` brings it to the positive denominator
    ``_exact_form`` would derive.
    """
    nums, den = form
    if len(nums) != size:
        raise SpaceMismatchError(f"exact form has {len(nums)} numerators, need {size}")
    if type(den) is not int or not set(map(type, nums)) <= {int}:
        raise TypeError("an exact form holds int numerators over an int denominator")
    if den == 0:
        raise ZeroDivisionError("exact form with denominator 0")
    return _reduced(nums, den)


def _reduced(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    # one gcd brings int numerators over a nonzero int denominator to the
    # positive one ``_exact_form`` would derive, kept even where that would
    # find the values too coprime to share one; a form over 1 is reduced already
    if den == 1:
        return nums, den
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    if g != 1:
        return [n // g for n in nums], den // g
    return nums, den


def validate_capacity(space: FiniteSpace, table: Sequence) -> Capacity:
    """Check and build a capacity from a dense table: a sequence in mask
    order, one value per subset, never a mapping.  Additive capacities
    given by their masses go through ``additive_capacity`` instead, and
    tables held as exact forms through ``validate_batch``.  What the
    capacity stores goes through the normalization and monotonicity checks
    of ``_checked_table``.  A float table may fall by up to ``TABLE_TOL``
    on each cover pair (A, A + {i}), so by up to n * ``TABLE_TOL``, at
    most 2e-11, between nested subsets n points apart.
    """
    check_dense_size(space)
    if isinstance(table, Mapping):
        raise TypeError("a dense table is a sequence in mask order, not a mapping")
    if len(table) != space.full_mask + 1:
        raise SpaceMismatchError("table does not cover every subset")
    return _checked_table(space, table)


def validate_batch(space: FiniteSpace, columns: Sequence[Sequence[int]], den: int
                   ) -> tuple[str, Sequence[Sequence[int]], int]:
    """Check capacities on one space as one batch, and return its kind, the
    batch and its denominator.

    The batch is stored as columns of int numerators over one denominator,
    ``columns[j][k]`` being row k's numerator at entry j, so a row is
    ``[c[k] for c in columns]``.  This is the one place that reads a kind
    from the column count: n columns, one per point, are mass vectors
    (kind "masses"); 2**n, one per mask, are dense tables (kind "table";
    past ``MAX_DENSE_POINTS`` a TooManyPointsError).  Any other count is
    refused before any pass with a SpaceMismatchError naming both counts.
    The columns are checked as a whole: all of one length, one type scan
    finding only ints, ``den`` a nonzero int; then for mass vectors no
    negative entry and every row summing to ``den``, and for tables the
    empty set's column all 0, the full set's all ``den``, and for each
    slice pair of ``_cover_slices`` one C-speed pass over the joined columns
    of either slice finding no decrease, at most n * sqrt(2**n) passes for
    any number of tables.  The columns are returned as given, or negated
    with a negative ``den``, so the denominator returned is positive.  A
    batch that fails is checked again a row at a time through its kind's
    one-capacity door (``additive_capacity(form=...)``, or ``_checked_form``
    then ``_checked_table``), so it raises what its first bad row raises
    alone; a row whose columns end early is short, a count error.
    """
    n = len(space)
    kind = "masses" if len(columns) == n else "table"
    if kind == "table":
        check_dense_size(space)
        if len(columns) != 1 << n:
            raise SpaceMismatchError(f"a batch on {n} points has {len(columns)} columns, "
                                     f"need {n} for mass vectors or {1 << n} for tables")
    count = len(columns[0])
    whole = (all(len(c) == count for c in columns) and type(den) is int and den != 0
             and set(map(type, chain.from_iterable(columns))) <= {int})
    if whole and den < 0:
        columns, den = [[-x for x in c] for c in columns], -den
    if kind == "masses":
        whole = (whole and min(chain.from_iterable(columns), default=0) >= 0
                 and set(map(sum, zip(*columns))) <= {den})
    else:
        whole = (whole and columns[0].count(0) == count and columns[-1].count(den) == count
                 and not any(any(map(gt, chain.from_iterable(columns[lo]),
                                     chain.from_iterable(columns[hi])))
                             for _, lo, hi in _cover_slices(n)))
    if not whole:
        for k in range(max(map(len, columns))):
            row = [c[k] for c in columns if k < len(c)]
            if kind == "masses":
                additive_capacity(space, form=(row, den))
            else:
                _checked_table(space, *_checked_form((row, den), 1 << n))
    return kind, columns, den


def batch_capacities(space: FiniteSpace, kind: str, columns: Sequence[Sequence[int]],
                     den: int) -> list[Capacity]:
    """The rows of a batch checked by ``validate_batch``, of the kind it
    returned, as capacities, each on its form reduced as ``_checked_form``
    reduces it."""
    return [Capacity(space, **{kind: nums}, den=d)
            for nums, d in map(_reduced, zip(*columns), repeat(den))]


def _checked_table(space: FiniteSpace, stored: Sequence, den: Optional[int] = None,
                   derive: bool = True) -> Capacity:
    """Build a dense table as ``Capacity`` does, then run the normalization
    and monotonicity checks on what it stores, the first decreasing cover
    pair of ``_first_decrease`` being the witness.  A float table then
    refuses a NaN entry, the one value unequal to itself, which no check
    catches (an infinite one fails a check, unless a NaN hides it)."""
    cap = Capacity(space, table=stored, den=den, derive=derive)
    keys, tol = cap._keys()
    if not (_close(keys[0], 0, tol) and _close(keys[-1], cap._den or 1, tol)):
        raise NormalizationError(f"need table(empty)=0 and table(full)=1, got "
                                 f"{cap.value(0)} and {cap.value(space.full_mask)}")
    first = _first_decrease(len(space), keys, tol)
    if first is not None:
        mask, i = first
        above = mask | 1 << i
        raise MonotonicityError(mask, above, f"capacity decreases from {space.labels(mask)}"
                                f" ({cap.value(mask)}) to {space.labels(above)}"
                                f" ({cap.value(above)})")
    if tol and any(map(ne, keys, keys)):
        mask = list(map(ne, keys, keys)).index(True)
        raise ValueError(f"capacity value on {space.labels(mask)} is {keys[mask]}, not finite")
    return cap


def additive_capacity(space: FiniteSpace,
                      masses: Union[Mapping[str, Number], Sequence[Number], None] = None,
                      *, form: Optional[tuple[Sequence[int], int]] = None) -> Capacity:
    """Check and build an additive capacity from its singleton masses.

    Masses come as a mapping by point label or as a sequence in point
    order; none may be negative and they must sum to 1.  A caller holding
    their exact form hands it over as ``form`` = (numerators, denominator)
    in place of the masses, checked and reduced by ``_checked_form``, and
    the capacity built from either goes through the same checks.
    """
    if (masses is None) == (form is None):
        raise TypeError("give a capacity's masses or their exact form, not both")
    if form is not None:
        nums, den = _checked_form(form, len(space))
        cap = Capacity(space, masses=nums, den=den)
    else:
        if isinstance(masses, Mapping):
            for p in space.points:
                if p not in masses:
                    raise SpaceMismatchError(f"missing singleton value for {_echo(repr(p))}")
            foreign = [label for label in masses if label not in space._index]
            if foreign:
                raise SpaceMismatchError(f"singleton values for labels that are not "
                                         f"points: {_echo(', '.join(map(repr, foreign)))}")
            masses = [masses[p] for p in space.points]
        elif len(masses) != len(space):
            raise SpaceMismatchError("one mass per point required")
        cap = Capacity(space, masses=masses)
    keys, tol = cap._keys()
    for i in compress(range(len(keys)), map(gt, repeat(0), keys)):
        if not _close(keys[i], 0, tol):
            raise MonotonicityError(
                0, 1 << i, f"negative mass {cap.value(1 << i)} at {space.points[i]!r}")
    if not _close(total := sum(keys), cap._den or 1, tol):
        raise NormalizationError(f"singleton masses sum to "
                                 f"{Fraction(total, cap._den) if cap._den else total}, not 1")
    return cap


def distort(u: Capacity, h: Callable[[Number], Number]) -> Capacity:
    """Post-compose a capacity with a nondecreasing reweighting of [0, 1].

    h must fix the endpoints and be nondecreasing on the capacity's attained
    values (all that is ever evaluated); the images decide whether those
    checks are exact.
    """
    values = list(map(u.value, u.space.all_masks()))
    lut = {v: h(v) for v in sorted(set(values))}
    images = list(lut.values())
    tol = tolerance(images)
    h0, h1 = lut[values[0]], lut[values[-1]]
    if not (_close(h0, 0, tol) and _close(h1, 1, tol)):
        raise EndpointError(f"distortion must fix endpoints, got h(0)={h0}, h(1)={h1}")
    for a, b in zip(images, images[1:]):
        if a > b and not _close(a, b, tol):
            raise MonotonicityError(0, 0, f"distortion decreases: {a} > {b}")
    return Capacity(u.space, table=[lut[v] for v in values])


def pushforward(u: Capacity, h: PointMap) -> Capacity:
    """Transport a capacity along a point map: result(B) = u(preimage of B).

    A mass vector adds each point's stored mass into its image's, a table
    reads each subset's preimage; numerators stay over their denominator.
    """
    _require_same_space(u.space, h.domain)
    target = h.codomain
    if u._masses is not None:
        out = [0] * len(target)
        for j, m in zip(h.images, u._masses):
            out[j] += m
        return Capacity(target, masses=out, den=u._den)
    return Capacity(target, table=[u._table[m] for m in h.preimage_masks()], den=u._den)
