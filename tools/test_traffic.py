"""``traffic.py`` reports which lines of the package the workloads run.

    python -m pytest tools
"""

import ast
from pathlib import Path

import pytest
import traffic
from choquet_tower import (category, choquet, core, ellsberg, hierarchy, spacefile, tower,
                           uncertainty)


def _function(module, name):
    tree = ast.parse(Path(module.__file__).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.fixture(scope="module")
def urn_missed():
    missed, failures = traffic.unrun(["urn"], seed=1)
    assert failures == []
    return missed


def test_the_urn_workload_runs_xi_on_all_tables_and_the_mass_form_and_no_quadrature(
        urn_missed):
    missed = urn_missed
    # of_columns separates the urn's tables on one column, never on the rows
    rows = next(node for node in ast.walk(_function(uncertainty, "of_columns"))
                if isinstance(node, ast.If) and "any(" in ast.unparse(node.test))
    assert "zip(" in ast.unparse(rows.body[0].test)
    assert rows.lineno not in missed["uncertainty.py"]
    assert rows.body[0].lineno in missed["uncertainty.py"]
    # xi integrates the act against all of the urn's tables at once, and each
    # bet's step, over the gcd, is 1: its column is read as it stands, with
    # no slice anywhere in xi
    xi = _function(uncertainty, "xi")
    assert not any(isinstance(node, ast.Slice) for node in ast.walk(xi))
    loop = next(node for node in ast.walk(xi) if isinstance(node, ast.For))
    column, scale = loop.body[:2]
    assert ast.unparse(column) == "column = columns[cum]"
    assert "map(mul" in ast.unparse(scale.body[0])
    assert column.lineno not in missed["uncertainty.py"]
    assert scale.body[0].lineno in missed["uncertainty.py"]
    # and each weight layer of X and Y, one mass vector, by the exact mass
    # branch of choquet_integral: one dot product
    mass_branch = next(node for node in ast.walk(_function(choquet, "choquet_integral"))
                       if isinstance(node, ast.If) and "_masses" in ast.unparse(node.test))
    exact = mass_branch.body[0]
    assert "act is not None" in ast.unparse(exact.test)
    assert exact.body[0].lineno not in missed["choquet.py"]
    quadrature = traffic.executable_lines(hierarchy._gauss_legendre_01.__code__)
    assert quadrature and quadrature <= set(missed["hierarchy.py"])


@pytest.fixture(scope="module")
def laws_missed():
    missed, failures = traffic.unrun(["laws"], seed=1)
    assert failures == []
    return missed


def test_the_laws_workload_averages_tower_levels_on_their_stored_batch(laws_missed):
    # every tower level is stored as a batch of mass columns, so each
    # additive mu of the law suites reads the batch, and the branch that
    # averages singleton values never runs
    missed = laws_missed
    branch = next(node for node in ast.walk(_function(category, "mu"))
                  if isinstance(node, ast.If) and "us.kind" in ast.unparse(node.test))
    assert "singleton_masses" in ast.unparse(branch.orelse)
    assert branch.body[0].lineno not in missed["category.py"]
    assert all(stmt.lineno in missed["category.py"] for stmt in branch.orelse)


def test_the_laws_workload_runs_xis_step_multiplier_and_its_zero_act(laws_missed):
    # the ug-map law takes its source side on the urn from xi's column pass:
    # the drawn acts keep a step above 1 after the gcd, so their columns are
    # multiplied, and the indicator of the empty set is the zero act
    xi = _function(uncertainty, "xi")
    zero = next(node for node in ast.walk(xi)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "not steps")
    loop = next(node for node in ast.walk(xi) if isinstance(node, ast.For))
    scale = loop.body[1]
    assert "map(mul" in ast.unparse(scale.body[0])
    assert zero.body[0].lineno not in laws_missed["uncertainty.py"]
    assert scale.body[0].lineno not in laws_missed["uncertainty.py"]


def test_the_urn_workload_builds_no_binomial_member(urn_missed):
    # variant Z builds its family, but integrates it on the act's numerators
    # and never asks for a member
    family = traffic.executable_lines(ellsberg.binomial_family.__code__)
    member = next(code for code in ellsberg.binomial_family.__code__.co_consts
                  if getattr(code, "co_name", None) == "member")
    body = traffic.executable_lines(member)
    assert body and body <= set(urn_missed["ellsberg.py"])
    assert family - body and not (family - body) & set(urn_missed["ellsberg.py"])


def _check_lines(missed, function):
    return traffic.executable_lines(function.__code__) - set(missed["core.py"])


def _batch_check():
    """validate_batch's whole-column passes, as the branch on its kind, and
    its row-by-row fallback."""
    check = _function(core, "validate_batch")
    passes = next(node for node in ast.walk(check) if isinstance(node, ast.If)
                  and "_cover_slices" in ast.unparse(node.orelse))
    fallback = next(node for node in ast.walk(check) if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "not whole")
    assert "zip(*columns)" in ast.unparse(passes.body)
    assert "additive_capacity" in ast.unparse(fallback)
    assert "_checked_table" in ast.unparse(fallback)
    return passes, fallback.body[0]


def test_the_urn_is_checked_in_the_column_pass_and_never_table_by_table(urn_missed):
    # validate_batch runs its whole-batch passes over the urn's columns and
    # never falls back to the one-table path; no table reaches the sweep
    passes, fallback = _batch_check()
    column_pass = next(node for node in ast.walk(passes.orelse[0])
                       if isinstance(node, ast.GeneratorExp))
    assert column_pass.lineno not in urn_missed["core.py"]
    assert fallback.lineno in urn_missed["core.py"]
    assert not _check_lines(urn_missed, core._first_decrease)
    assert not _check_lines(urn_missed, core._checked_table)


def test_every_tower_level_is_checked_in_the_mass_pass_and_never_row_by_row(laws_missed):
    # the law suites build their towers, whose every level validate_batch
    # reads as mass vectors and accepts in the whole-column mass pass; no
    # batch of theirs reaches the row-by-row fallback
    passes, fallback = _batch_check()
    mass_pass = next(node for node in ast.walk(passes.body[0])
                     if isinstance(node, ast.Call) and ast.unparse(node.func) == "zip")
    levels = next(node for node in ast.walk(_function(tower, "build_tower"))
                  if isinstance(node, ast.Call) and "of_columns" in ast.unparse(node.func))
    assert levels.lineno not in laws_missed["tower.py"]
    assert mass_pass.lineno not in laws_missed["core.py"]
    assert fallback.lineno in laws_missed["core.py"]


@pytest.fixture(scope="module")
def spacefile_missed():
    missed, failures = traffic.unrun(["spacefile"], seed=1)
    assert failures == []
    return missed


def test_the_spacefile_workload_still_sweeps_its_tables(spacefile_missed):
    assert _check_lines(spacefile_missed, core._first_decrease)
    assert _check_lines(spacefile_missed, core._checked_table)


def test_the_spacefile_workload_confirms_its_keys_by_the_runs_alone(spacefile_missed):
    # its tables list their keys in mask order: the run comparison accepts
    # them, and no canonical key is looked up
    entries = _function(spacefile, "_table_entries")
    accept = next(node for node in ast.walk(entries)
                  if isinstance(node, ast.If) and "_canonical_runs" in ast.unparse(node.test))
    lookup = next(node for node in ast.walk(entries) if isinstance(node, ast.For)
                  and "_canonical_runs" in ast.unparse(node.iter))
    assert "raw.values()" in ast.unparse(accept.body[0])
    assert "__getitem__" in ast.unparse(lookup.body[0])
    assert accept.body[0].lineno not in spacefile_missed["spacefile.py"]
    assert lookup.body[0].lineno in spacefile_missed["spacefile.py"]


def test_a_range_spans_missed_executable_lines_only():
    executable = {1, 2, 3, 5, 7, 9}
    assert traffic.ranges([2, 3, 5, 9], executable) == "2-5, 9"
    assert traffic.ranges([], executable) == ""
