import pytest

from choquet_tower import category, laws, tower


@pytest.mark.parametrize("suite,kwargs", [
    ("choquet", {"trials": 60}),
    ("dirac", {"trials": 60}),
    ("monad", {"trials": 30, "grid": 2, "space_size": 2, "depth": 3}),
    ("substitution", {"trials": 60}),
    ("retraction", {"grid": 2, "depth": 3, "space_size": 2}),
    ("ug-map", {}),
    ("unc-maps", {"trials": 40}),
])
def test_suite_passes(suite, kwargs):
    report = laws.SUITES[suite](seed=7, **kwargs)
    assert report.passed, report.to_dict()


def test_retraction_on_three_point_base():
    report = laws.run_retraction_suite(grid=2, depth=3, space_size=3, seed=7)
    assert report.passed, report.to_dict()


def test_reports_are_seed_stable():
    a = laws.run_choquet_suite(seed=11, trials=25).to_dict()
    b = laws.run_choquet_suite(seed=11, trials=25).to_dict()
    assert a == b


def test_retraction_needs_two_points(monkeypatch):
    def no_tower(*args):
        raise AssertionError("the tower was built before the size check")

    monkeypatch.setattr(laws, "build_tower", no_tower)
    with pytest.raises(ValueError, match="at least 2 points"):
        laws.run_retraction_suite(grid=2, depth=3, space_size=1, seed=7)


def test_the_associativity_oracle_is_built_without_mu(monkeypatch):
    # the right side of associativity is mu's defining table through xi, so
    # with mu refused the suite still sets up, and its mu trials fail alone
    def refused(*args):
        raise RuntimeError("mu refused")

    for module in (category, tower, laws):
        monkeypatch.setattr(module, "mu", refused)
    report = laws.run_monad_suite(seed=7, trials=5, grid=2, space_size=2, depth=3)
    unit, associativity, counterexample = report.laws
    assert (unit.failures, associativity.failures) == (1, 5)
    assert associativity.first_failure == "RuntimeError: mu refused"
    assert counterexample.passed
