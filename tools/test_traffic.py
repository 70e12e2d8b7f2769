"""``traffic.py`` reports which lines of the package the workloads run.

    python -m pytest tools
"""

import ast
from pathlib import Path

import traffic
from choquet_tower import choquet, hierarchy, uncertainty


def _function(module, name):
    tree = ast.parse(Path(module.__file__).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_urn_workload_runs_xi_on_all_tables_and_the_mass_form_and_no_quadrature():
    missed, failures = traffic.unrun(["urn"], seed=1)
    assert failures == []
    # of_tables separates the urn's tables on one column, never on the rows
    rows = next(node for node in ast.walk(_function(uncertainty, "of_tables"))
                if isinstance(node, ast.If) and "any(" in ast.unparse(node.test))
    assert "zip(" in ast.unparse(rows.body[0].test)
    assert rows.lineno not in missed["uncertainty.py"]
    assert rows.body[0].lineno in missed["uncertainty.py"]
    # xi integrates the act against all of the urn's tables at once, and each
    # bet's step, over the gcd, is 1: its column is taken as it stands
    loop = next(node for node in ast.walk(_function(uncertainty, "xi"))
                if isinstance(node, ast.For))
    column, scale = loop.body[:2]
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


def test_a_range_spans_missed_executable_lines_only():
    executable = {1, 2, 3, 5, 7, 9}
    assert traffic.ranges([2, 3, 5, 9], executable) == "2-5, 9"
    assert traffic.ranges([], executable) == ""
