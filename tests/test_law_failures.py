"""Every law's failure message and every verdict exit, driven by a broken kernel.

Each case replaces one kernel under the name the suite's module holds, runs
the suite through ``cli.main`` and expects exit 3 with each named law's own
message as its ``first_failure``: the fixed leading text of the message,
before any drawn value it quotes.  Together the cases reach every line of
``laws`` that returns a failure message.  A kernel that raises inside a
trial is that trial's failure, named by the exception's type and message,
while an error raised as a suite is set up stays exit 1.  The exact branch
of ``choquet_integral`` for one stored form, halved, fails a law suite
(for dense tables ``choquet`` and ``retraction``), and for mass vectors the
urn's closed-form check too; the command ``choquet`` imports the kernel
when it runs, so on a dense space file it prints the halved value.  ``xi``'s column pass without its step
multiplier fails ``ug-map``, whose map law takes its source side from
``xi``.  For the urn, a shifted
closed form is the verdict "disagrees with the closed form" and exits 2 on
both the alpha = 1 and the alpha > 1 branch.
"""

import json
import math
from fractions import Fraction

import pytest

from choquet_tower import category, choquet, ellsberg, hierarchy, laws, uncertainty
from choquet_tower.category import MapWitness
from choquet_tower.cli import main
from choquet_tower.core import Act, additive_capacity


def _run(capsys, args: list[str]) -> tuple[int, dict]:
    code = main(args)
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    return code, {law["name"]: law for law in report["laws"]}


def _negated(real):
    return lambda u, f: -real(u, f)


def _squared(real):
    return lambda u, f: real(u, f) ** 2


def _plus_one(real):
    return lambda value_of, f: real(value_of, f) + 1


def _next_point_mass(real):
    # the point mass at the point after p
    def dirac(space, p):
        return real(space, space.points[(space.index(p) + 1) % len(space)])
    return dirac


def _constant_mu(real):
    # the first capacity of the view, whatever is averaged
    return lambda view, v: view.capacities[0][1]


def _first_point_push(real):
    # every pushforward lands on the point mass at the codomain's first point
    return lambda cap, h: laws.dirac(h.codomain, h.codomain.points[0])


def _shifted_beta(real):
    return lambda beta: real(beta + 1)


def _bent_three(real):
    return lambda beta: real(beta if beta == 1 else 3)


def _off_grid(real):
    # masses 1/3, 2/3 on the first two points: on no grid with step 1/2
    def project(tower, cap, m, n):
        space = tower.space_at(n - 1)
        return additive_capacity(space, form=([1, 2] + [0] * (len(space) - 2), 3))
    return project


def _wrong_descent(real):
    # a descent lands on another grid point of the target level
    def project(tower, cap, m, n):
        out = real(tower, cap, m, n)
        if m <= n:
            return out
        return next(c for _, c in tower.view(n - 1).capacities if c != out)
    return project


def _fails(real):
    return lambda *args, **kwargs: False


def _flags_index_0(real):
    return lambda vector: (False, 0)


def _flags_nothing(real):
    return lambda vector: (True, None)


def _witness_blocks(real):
    # a failure witness whose mask the target capacity does not kill
    return lambda h, source, target: MapWitness(False, failure=("u", (("v", 2),)))


def _witness_passes(real):
    return lambda h, source, target: MapWitness(True)


def _fails_entropic(real):
    return lambda phi, source, target, g, draw: (
        g.kind != "entropic" and real(phi, source, target, g, draw))


#: (suite arguments, kernel name in ``laws``, replacement, {law: message start})
CASES = [
    (["choquet", "--trials", "20"], "choquet_integral", _negated, {
        "monotonicity": "I(f) < I(g) for f >= g on (",
        "additive-linearity": "additive capacity does not reduce to the weighted sum"}),
    (["choquet", "--trials", "20"], "choquet_integral", _squared, {
        "comonotonic-additivity": "I(f+g) != I(f)+I(g) on (",
        "positive-homogeneity": "I(lam f) != lam I(f) for lam=",
        "additive-linearity": "additive capacity not linear: "}),
    (["choquet", "--trials", "20"], "choquet_sum", _plus_one, {
        "additive-linearity": "mass-vector integral differs from the telescoping sum"}),
    (["dirac", "--trials", "20"], "dirac", _next_point_mass, {
        "table-identity": "point mass wrong at ",
        "integral-evaluates": "I under point mass at ",
        "naturality": "pushforward of point mass at "}),
    (["monad", "--trials", "3"], "mu", _constant_mu, {
        "unit-laws": "averaging a point mass at "}),
    (["monad", "--trials", "3"], "pushforward", _first_point_push, {
        "unit-laws": "averaging the lifted "}),
    (["monad", "--trials", "3"], "choquet_sum", _plus_one, {
        "associativity-additive": "associativity broke at mask "}),
    (["monad", "--trials", "3"], "monad_counterexample", _shifted_beta, {
        "counterexample": "additive case must have zero difference"}),
    (["monad", "--trials", "3"], "monad_counterexample", _bent_three, {
        "counterexample": "distorted difference "}),
    (["substitution", "--trials", "3"], "substitution_check", _fails, {
        "substitution": "substitution failed for {"}),
    (["retraction"], "project", _off_grid, {
        "retraction": "lift of ",
        "monotone-composition": "composition "}),
    (["retraction"], "project", _wrong_descent, {
        "retraction": "retraction "}),
    (["retraction"], "projective_consistency", _flags_index_0, {
        "consistency-detector": "point-mass chain flagged inconsistent at 0"}),
    (["retraction"], "projective_consistency", _flags_nothing, {
        "consistency-detector": "perturbed vector was not flagged at index 1"}),
    (["ug-map"], "is_ug_map", _fails, {
        "identity": "identity maps failed under the linear transform",
        "inclusion-at-midpoint": "binomial midpoint inclusion failed",
        "composition": "composition of passing maps failed"}),
    (["ug-map"], "is_ug_map", _fails_entropic, {
        "identity": "identity maps failed under the entropic transform"}),
    (["unc-maps", "--trials", "3"], "is_mp_unc_map", _fails, {
        "mp-implies-dominated": "pushforward-built map not measure preserving",
        "composition-closure": "composition of measure preserving maps failed"}),
    (["unc-maps", "--trials", "3"], "is_unc_map", _witness_blocks, {
        "mp-implies-dominated": "measure preserving map not null-set dominated",
        "composition-closure": "composition of dominated maps failed",
        "full-support-target": "map into a fully supported capacity must be dominated",
        "killed-singleton-witness": "failure witness does not re-verify"}),
    (["unc-maps", "--trials", "3"], "is_unc_map", _witness_passes, {
        "killed-singleton-witness": "map into a capacity killing the image must fail"}),
]


@pytest.mark.parametrize("args, kernel, breaks, messages", CASES,
                         ids=[f"{c[0][0]}-{c[1]}-{c[2].__name__[1:]}" for c in CASES])
def test_each_law_reports_its_own_failure(args, kernel, breaks, messages,
                                          monkeypatch, capsys):
    monkeypatch.setattr(laws, kernel, breaks(getattr(laws, kernel)))
    code, by_law = _run(capsys, ["laws", *args, "--seed", "7"])
    assert code == 3
    for law, start in messages.items():
        assert by_law[law]["failures"] > 0, law
        assert by_law[law]["first_failure"].startswith(start), by_law[law]


#: one kernel per suite that none of its set-up reaches
RAISING = [
    (["choquet", "--trials", "5"], "choquet_integral"),
    (["dirac", "--trials", "5"], "dirac"),
    (["monad", "--trials", "5"], "mu"),
    (["substitution", "--trials", "5"], "substitution_check"),
    (["retraction"], "project"),
    (["ug-map"], "is_ug_map"),
    (["unc-maps", "--trials", "5"], "is_mp_unc_map"),
]


@pytest.mark.parametrize("args, kernel", RAISING, ids=[a[0] for a, _ in RAISING])
def test_a_trial_that_raises_is_one_failure(args, kernel, monkeypatch, capsys):
    real = getattr(laws, kernel)
    calls = []

    def raise_once(*a, **k):
        calls.append(1)
        if len(calls) == 1:
            raise ZeroDivisionError("kernel fault")
        return real(*a, **k)

    monkeypatch.setattr(laws, kernel, raise_once)
    code, by_law = _run(capsys, ["laws", *args, "--seed", "7"])
    assert code == 3
    failed = [law for law in by_law.values() if law["failures"]]
    assert len(failed) == 1 and failed[0]["failures"] == 1
    assert failed[0]["first_failure"] == "ZeroDivisionError: kernel fault"


def _halve_exact(monkeypatch, masses: bool) -> None:
    # choquet_integral with its exact branch for one stored form halved,
    # under every name the package holds it by
    real = choquet.choquet_integral

    def halved(u, f):
        out = real(u, f)
        exact = u.exact_form is not None and f.exact_form is not None
        return out / 2 if exact and (u._masses is not None) == masses else out

    for module in (category, choquet, hierarchy, laws, uncertainty):
        monkeypatch.setattr(module, "choquet_integral", halved)


def test_a_halved_dense_integral_fails_retraction_with_exit_3(monkeypatch, capsys):
    # the dense exact branch halved: the descents built without mu are no
    # longer normalized
    _halve_exact(monkeypatch, masses=False)
    code, by_law = _run(capsys, ["laws", "retraction", "--seed", "7"])
    assert code == 3
    assert by_law["monotone-composition"]["first_failure"].startswith(
        "NormalizationError: need table(empty)=0 and table(full)=1")


def test_a_halved_dense_integral_fails_choquet_monotonicity_with_exit_3(monkeypatch, capsys):
    # the indicator of the drawn h's support no longer integrates to its value
    _halve_exact(monkeypatch, masses=False)
    code, by_law = _run(capsys, ["laws", "choquet", "--seed", "7"])
    assert code == 3
    assert by_law["monotonicity"]["first_failure"].startswith("I(1_A) != u(A) on ")
    assert [name for name, law in by_law.items() if law["failures"]] == ["monotonicity"]


def test_a_halved_dense_integral_fails_dirac_with_exit_3(monkeypatch, capsys):
    # the drawn point mass, written as a dense 0/1 table, no longer evaluates
    _halve_exact(monkeypatch, masses=False)
    code, by_law = _run(capsys, ["laws", "dirac", "--seed", "7"])
    assert code == 3
    law = by_law["integral-evaluates"]
    assert law["first_failure"].startswith("I under the dense point mass at ")
    assert law["failures"] > law["trials"] // 2
    assert [name for name, law in by_law.items() if law["failures"]] == [
        "integral-evaluates"]


def test_a_halved_dense_integral_halves_what_the_choquet_command_prints(
        monkeypatch, capsys, tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"], "acts": {"f": ["11", "1", "0"]},
        "capacities": {"w": {"mode": "full", "values": {
            "000": "0", "100": "1/10", "010": "1/10", "001": "1/10",
            "110": "2/5", "101": "2/5", "011": "2/5", "111": "1"}}}}))
    argv = ["choquet", str(path), "w", "f"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    _halve_exact(monkeypatch, masses=False)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert whole == "7/5\n" and captured.out == "7/10\n"


@pytest.mark.parametrize("suite, law, start", [
    ("choquet", "additive-linearity", "additive capacity does not reduce to the weighted sum"),
    ("dirac", "integral-evaluates", "I under point mass at "),
    ("retraction", "monotone-composition", "NormalizationError: need table(empty)=0"),
])
def test_a_halved_mass_integral_fails_the_law_suites_with_exit_3(suite, law, start,
                                                                 monkeypatch, capsys):
    _halve_exact(monkeypatch, masses=True)
    code, by_law = _run(capsys, ["laws", suite, "--seed", "7"])
    assert code == 3
    assert by_law[law]["first_failure"].startswith(start)


@pytest.mark.parametrize("variant", ["X", "Y"])
def test_a_halved_mass_integral_disagrees_with_the_urn_closed_form(variant, monkeypatch,
                                                                   capsys):
    # X's and Y's weight layer is one mass vector, integrated by that branch
    _halve_exact(monkeypatch, masses=True)
    code = main(["ellsberg", "--variant", variant, "--big-n", "300", "--alpha", "2",
                 "--u1", "0.6", "--layer", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["verdict"] == "disagrees with the closed form"


def _unscaled_xi(real):
    # xi's column pass with each step's multiplier, step // g, taken as 1
    def xi(us, f):
        if us.kind != "table" or f.exact_form is None or not f.exact_chain[1]:
            return real(us, f)
        columns, den = us.batch
        cums, steps, act_den = f.exact_chain
        g = math.gcd(act_den * den, *steps)
        nums = [sum(entries) for entries in zip(*(columns[cum] for cum in cums))]
        return Act(us.capacity_space, form=(nums, act_den * den // g))
    return xi


def test_a_column_pass_without_its_step_multiplier_fails_ug_map_with_exit_3(monkeypatch,
                                                                           capsys):
    # is_ug_map integrates its source side through xi, and the drawn acts
    # on the urn have steps that the gcd leaves above 1
    monkeypatch.setattr(category, "xi", _unscaled_xi(category.xi))
    code, by_law = _run(capsys, ["laws", "ug-map", "--seed", "7"])
    assert code == 3
    assert {name: law["first_failure"] for name, law in by_law.items()} == {
        "identity": "identity maps failed under the linear transform",
        "inclusion-at-midpoint": "binomial midpoint inclusion failed",
        "composition": "composition of passing maps failed"}


def test_a_subtraction_that_adds_fails_monotonicity_with_exit_3(monkeypatch, capsys):
    # Act._combine with its sign ignored, so f - g returns f + g
    real = Act._combine
    monkeypatch.setattr(Act, "_combine", lambda self, other, sign: real(self, other, 1))
    code, by_law = _run(capsys, ["laws", "choquet", "--seed", "7"])
    assert code == 3
    assert by_law["monotonicity"]["first_failure"].startswith("(g + h) - g != h on ")


@pytest.mark.parametrize("args, message", [
    (["laws", "monad", "--grid", "5"], "tower guards"),
    (["laws", "retraction", "--space-size", "1"], "at least 2 points"),
    (["laws", "retraction", "--depth", "1"], "depth of at least 2"),
])
def test_suite_set_up_errors_stay_exit_1(args, message, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("alpha", ["1", "2"])
def test_a_closed_form_disagreement_is_a_verdict(alpha, monkeypatch, capsys):
    real = ellsberg.closed_form_values

    def shifted(*args):
        values = real(*args)
        return {**values, "f2": values["f2"] + Fraction(1, 1000)}

    monkeypatch.setattr(ellsberg, "closed_form_values", shifted)
    code = main(["ellsberg", "--variant", "X", "--big-n", "3", "--alpha", alpha,
                 "--u1", "0.6", "--layer", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "disagrees with the closed form"
    assert report["paradox_represented"] is False
    demo = ellsberg.paradox_demo(ellsberg.UrnParams(big_n=3, alpha=int(alpha),
                                                    u1=Fraction(3, 5)))
    assert demo.branch == "disagrees with the closed form"
