"""What a command pays before its work: the package's classes are plain
immutable classes, importing the command line loads neither
``dataclasses`` nor ``inspect``, no module imports anything outside the
standard library or its own package by name, and each subcommand loads
only the package modules it runs."""

import argparse
import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import choquet_tower
from choquet_tower import ellsberg, laws
from choquet_tower.category import EmbDiracReport, MapWitness, MonadCounterexample
from choquet_tower.choquet import ChainDecomposition
from choquet_tower.cli import LAW_FLAG_DEFAULTS, SUITE_READS, RunConfig, build_parser
from choquet_tower.core import (Act, FiniteSpace, Frozen, PointMap, Subset,
                                additive_capacity)
from choquet_tower.ellsberg import (EllsbergReport, ParadoxReport, UrnParams,
                                    binomial_family, build_urn_space)
from choquet_tower.hierarchy import TERMINAL, USequence, UtilityFunction
from choquet_tower.laws import LawResult, SuiteReport
from choquet_tower.spacefile import SpaceFile
from choquet_tower.tower import ProjectiveVector, build_tower
from choquet_tower.uncertainty import GTransform, UncertaintySpace

PACKAGE = Path(choquet_tower.__file__).resolve().parent
SLOW_IMPORTS = {"dataclasses", "inspect"}


def _imports(source: str):
    """(line, module) per import statement of a module's source, function-local
    ones included; relative imports are left out."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def _modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    return modules


def test_no_module_imports_dataclasses_or_inspect():
    found = [f"{path.name}:{line} imports {name}" for path in _modules()
             for line, name in _imports(path.read_text())
             if name.split(".")[0] in SLOW_IMPORTS]
    assert not found, "\n".join(found)


def test_no_module_imports_outside_the_standard_library():
    allowed = sys.stdlib_module_names | {"choquet_tower"}
    found = [f"{path.name}:{line} imports {name}" for path in _modules()
             for line, name in _imports(path.read_text())
             if name.split(".")[0] not in allowed]
    assert not found, "\n".join(found)


def test_no_module_imports_its_own_package_by_name():
    # relative imports alone, deferred ones included, so that a renamed copy
    # of the package loads its own modules, never this one's
    found = [f"{path.name}:{line} imports {name}" for path in _modules()
             for line, name in _imports(path.read_text())
             if name.split(".")[0] == "choquet_tower"]
    assert not found, "\n".join(found)


def test_only_the_law_suites_import_random():
    # every random draw is the law suites', on a trial's own stream; a
    # kernel that wants test values takes them from its caller
    found = {path.stem for path in _modules()
             for _, name in _imports(path.read_text()) if name == "random"}
    assert found == {"laws"}


def test_a_function_local_import_is_seen():
    source = ("import math\nfrom . import core\n"
              "def nodes(n):\n    from numpy.polynomial.legendre import leggauss\n"
              "def run(args):\n    from choquet_tower.laws import SUITES\n")
    assert list(_imports(source)) == [(1, "math"), (4, "numpy.polynomial.legendre"),
                                      (6, "choquet_tower.laws")]


def _loaded_by(code: str) -> set:
    """The modules a fresh interpreter loads to run ``code``."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(sorted(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(ast.literal_eval(out))


def _ours(loaded: set) -> set:
    return {name for name in loaded if name.split(".")[0] == "choquet_tower"}


#: the package modules the parser needs: none that a subcommand runs
PARSER = {"choquet_tower", "choquet_tower.core", "choquet_tower.cli"}


def test_building_the_parser_loads_neither_module():
    loaded = _loaded_by("import choquet_tower.cli as cli\ncli.build_parser()")
    assert not loaded & SLOW_IMPORTS
    assert _ours(loaded) == PARSER


def _command(argv: list) -> str:
    # a command run through cli.main, its report written to a file
    return f"import choquet_tower.cli as cli\nassert cli.main({argv!r}) == 0"


def test_a_choquet_command_loads_only_the_kernel_and_the_space_file_reader(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"points": ["a", "b"], "acts": {"f": ["1", "0"]}, "capacities": '
                    '{"u": {"mode": "full", "values": {"00": "0", "10": "1/2", '
                    '"01": "0", "11": "1"}}}}')
    out = tmp_path / "out.txt"
    loaded = _loaded_by(_command(["choquet", str(path), "u", "f", "--out", str(out)]))
    assert _ours(loaded) == PARSER | {"choquet_tower.choquet", "choquet_tower.spacefile"}
    assert out.read_text() == "1/2\n"


def test_an_ellsberg_command_loads_no_law_tower_or_space_file_module(tmp_path):
    out = tmp_path / "out.json"
    loaded = _ours(_loaded_by(_command(
        ["ellsberg", "--variant", "Z", "--big-n", "10", "--alpha", "2", "--u1", "3/5",
         "--layer", "3", "--out", str(out)])))
    assert "choquet_tower.ellsberg" in loaded and PARSER <= loaded
    assert not loaded & {f"choquet_tower.{name}"
                         for name in ("laws", "category", "tower", "spacefile")}
    assert '"verdict": "supports modal preference"' in out.read_text()


@pytest.mark.parametrize("code, ours", [
    ("import choquet_tower", {"choquet_tower"}),
    ("import choquet_tower.core", {"choquet_tower", "choquet_tower.core"}),
])
def test_the_package_root_imports_no_module_of_its_own(code, ours):
    # each public name has one import path, from its own module
    assert _ours(_loaded_by(code)) == ours


def _instances() -> list:
    """One instance of every immutable class in the package."""
    space = FiniteSpace(("a", "b"))
    cap = additive_capacity(space, form=([1, 1], 2))
    us = UncertaintySpace(space, (("u", cap),))
    params = UrnParams(1, 2, Fraction(3, 5))
    urn = build_urn_space(params)
    tower = build_tower(space, 2, 1)
    report = EllsbergReport("X", 2, params, ("*",), {}, "=", "=", "equalities", False)
    law = LawResult("law", 1, 0)
    return [
        space, Subset(space, 1), Act(space, (1, 0)), cap,
        PointMap(space, space, {"a": "a", "b": "b"}),
        ChainDecomposition(space, ((1, 1), (2, 0))),
        us, GTransform.linear(), UtilityFunction.anchored(Fraction(1, 2)),
        binomial_family(urn, 1), USequence((us, TERMINAL)),
        params, report, ParadoxReport((), True, "", "", "", report),
        MapWitness(True), EmbDiracReport(True, {}, {}),
        MonadCounterexample(1, 0, 0, 0, 0, 0, 0, 3, 10),
        tower, ProjectiveVector(tower, (cap,)),
        law, SuiteReport("s", 0, (law,)), SpaceFile(space, {}, {}),
        RunConfig("laws"),
    ]


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__()
            for sub in {direct} | _subclasses(direct)}


def test_every_immutable_class_is_covered():
    assert {type(obj) for obj in _instances()} == _subclasses(Frozen)
    assert len(_subclasses(Frozen)) == 23


@pytest.mark.parametrize("obj", _instances(), ids=lambda obj: type(obj).__name__)
def test_attributes_cannot_be_set_or_deleted(obj):
    name = next(iter(vars(obj)))  # a stored field
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, "new_attribute", None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(obj, name)


def test_value_types_compare_and_hash_by_value():
    space, other = FiniteSpace(("a", "b")), FiniteSpace(("a", "b"))
    pairs = [
        (space, other, FiniteSpace(("b", "a"))),
        (Subset(space, 1), Subset(other, 1), Subset(space, 2)),
        (Act(space, (1, 0)), Act(other, (Fraction(1), 0)), Act(space, (0, 1))),
        (ChainDecomposition(space, ((1, 1), (2, 0))),
         ChainDecomposition(other, ((1, 1), (2, 0))),
         ChainDecomposition(space, ((2, 1), (1, 0)))),
    ]
    for a, b, c in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
        assert a != "not a value"
    swap = PointMap(space, space, {"a": "b", "b": "a"})
    assert swap == PointMap(other, other, {"a": "b", "b": "a"})
    assert swap != PointMap(space, space, {"a": "a", "b": "b"})
    with pytest.raises(TypeError, match="unhashable"):
        hash(swap)


def test_other_classes_compare_by_identity():
    a, b = RunConfig("laws"), RunConfig("laws")
    assert a == a and a != b and hash(a) != hash(b)


def test_run_config_lists_its_fields_in_order():
    config = RunConfig("laws choquet", seed=3, trials=25, out="r.json")
    assert config.to_dict() == {"command": "laws choquet", "seed": 3, "trials": 25,
                                "backend": "rational", "tolerance": 1e-9,
                                "format": "json", "out": "r.json"}
    assert list(config.to_dict()) == ["command", "seed", "trials", "backend",
                                      "tolerance", "format", "out"]


def _parameters(fn) -> tuple[str, ...]:
    """A function's positional parameter names, read from its code object."""
    code = fn.__code__
    return code.co_varnames[:code.co_argcount]


def test_suite_flags_are_read_from_the_suites_parameters():
    assert SUITE_READS == {"choquet": ["trials"], "dirac": ["trials"],
                           "monad": ["trials", "grid", "space_size", "depth"],
                           "substitution": ["trials"],
                           "retraction": ["grid", "depth", "space_size"],
                           "ug-map": [], "unc-maps": ["trials"]}
    assert set(SUITE_READS) == set(laws.SUITES)
    for name, suite in laws.SUITES.items():
        assert SUITE_READS[name] == [f for f in _parameters(suite) if f in LAW_FLAG_DEFAULTS]


def test_the_variant_choices_are_the_urn_variants():
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    variant, = (action for action in sub.choices["ellsberg"]._actions
                if action.dest == "variant")
    assert tuple(variant.choices) == ellsberg.VARIANTS
