"""``traffic.py`` reports which lines of the package the workloads run.

    python -m pytest tools
"""

import ast
from pathlib import Path

import traffic
from choquet_tower import choquet, hierarchy


def test_the_urn_workload_runs_both_integral_forms_and_no_quadrature():
    missed, failures = traffic.unrun(["urn"], seed=1)
    assert failures == []
    tree = ast.parse(Path(choquet.__file__).read_text())
    integral_form = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                         and node.name == "integral_form")
    # the mass-vector and dense-table returns
    branches = {node.lineno for node in ast.walk(integral_form)
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)}
    assert len(branches) == 2
    assert not branches & set(missed["choquet.py"])
    quadrature = traffic.executable_lines(hierarchy._gauss_legendre_01.__code__)
    assert quadrature and quadrature <= set(missed["hierarchy.py"])


def test_a_range_spans_missed_executable_lines_only():
    executable = {1, 2, 3, 5, 7, 9}
    assert traffic.ranges([2, 3, 5, 9], executable) == "2-5, 9"
    assert traffic.ranges([], executable) == ""
