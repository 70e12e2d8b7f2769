"""The exactness-and-tolerance rule is decided in ``core`` and nowhere else."""

import re
from pathlib import Path

import pytest

import choquet_tower
from choquet_tower.core import (MAX_DENSE_POINTS, TABLE_TOL, VALUE_TOL, MonotonicityError,
                                make_space, validate_capacity)

PACKAGE = Path(choquet_tower.__file__).resolve().parent
#: tolerance literals and the removed table-or-masses switch of validate_capacity
FORBIDDEN = re.compile(r"1e-0*9|1e-12|singletons_additive", re.IGNORECASE)


def test_only_core_holds_tolerances():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")
    assert len(modules) >= 10
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in modules
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert not hits, "\n".join(hits)


# The rule bounds each cover pair (A, A + {i}): a float table may fall by up to
# TABLE_TOL there, so a nested pair n steps apart may fall by up to n * TABLE_TOL,
# at most MAX_DENSE_POINTS * TABLE_TOL = 2e-11, far below VALUE_TOL.

def test_a_nested_pair_may_fall_by_a_tolerance_per_cover_step():
    # {} -> {a} -> {a, b} each fall by 0.9e-12, so {} -> {a, b} falls by 1.8e-12
    table = [0.9e-12, 0, 0, -0.9e-12, .5, .5, .5, 1.0]
    cap = validate_capacity(make_space(["a", "b", "c"]), table)
    assert [cap.value(mask) for mask in range(8)] == table
    assert MAX_DENSE_POINTS * TABLE_TOL <= 2e-11 < VALUE_TOL


def test_a_cover_step_falling_by_twice_the_tolerance_is_refused():
    # {a} -> {a, b} falls by 2e-12; no other cover pair falls
    table = [0, .5, 0, .5 - 2 * TABLE_TOL, 0, .5, .5, 1.0]
    with pytest.raises(MonotonicityError) as refused:
        validate_capacity(make_space(["a", "b", "c"]), table)
    assert refused.value.witness == (0b001, 0b011)
