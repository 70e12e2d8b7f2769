"""Capacities outside ``core`` are built through its checked constructors.

One measured exception builds a ``Capacity`` directly: the random tables of
``laws.rand_capacity``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import choquet_tower
from choquet_tower import tower as tower_module
from choquet_tower.category import dirac
from choquet_tower.core import FiniteSpace, NormalizationError
from choquet_tower.tower import build_tower

PACKAGE = Path(choquet_tower.__file__).resolve().parent
#: (module, top-level function) pairs that may call Capacity(...) directly
EXCEPTIONS = {("laws.py", "rand_capacity")}


def _capacity_calls(path: Path):
    """(module, enclosing top-level function or None, line) per Capacity call."""
    tree = ast.parse(path.read_text())
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Capacity":
                    yield path.name, owner, node.lineno


def test_only_the_measured_exceptions_call_capacity():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")
    assert len(modules) >= 10
    calls = [call for path in modules for call in _capacity_calls(path)]
    stray = [f"{module}:{line} in {owner}" for module, owner, line in calls
             if (module, owner) not in EXCEPTIONS]
    assert not stray, "\n".join(stray)
    assert {(module, owner) for module, owner, _ in calls} == EXCEPTIONS


def test_build_tower_checks_its_grid_capacities(monkeypatch):
    def short_by_one(parts, total):
        yield (total - 1,) + (0,) * (parts - 1)

    monkeypatch.setattr(tower_module, "_grid_compositions", short_by_one)
    with pytest.raises(NormalizationError):
        build_tower(FiniteSpace(("a", "b")), 2, 1)


def test_point_masses_and_grid_capacities_keep_their_values():
    space = FiniteSpace(("a", "b", "c"))
    masses = dirac(space, "b").singleton_masses()
    assert masses == (0, 1, 0) and {type(m) for m in masses} == {Fraction}
    t = build_tower(FiniteSpace(("a", "b")), 4, 2)
    for name, cap in t.view(1).capacities:
        nums = [int(c) for c in name.split("-")]
        masses = cap.singleton_masses()
        assert masses == tuple(Fraction(c, 4) for c in nums)
        assert {type(m) for m in masses} == {Fraction}
