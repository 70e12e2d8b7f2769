"""The urn's work estimate is checked before anything is built.

Each of ``--big-n`` and ``--alpha`` has its own bound, but together they
could ask for unbounded work: ``build_sequence`` refuses a variant whose
``UrnParams.work`` exceeds ``MAX_URN_WORK``, and the CLI prints one error
line and exits 1.  An urn the budget admits prints its report, however many
digits its exact values hold.
"""

import math
import sys
import time
from fractions import Fraction

import pytest

from choquet_tower import ellsberg
from choquet_tower.cli import main
from choquet_tower.ellsberg import MAX_URN_WORK, UrnParams, build_sequence, paradox_demo

U1 = Fraction(3, 5)
#: per variant and alpha, the largest N the budget admits; each ran in
#: 2.7-5.7 s, in process on a 2-CPU container under Python 3.11 (a whole
#: alpha 2.7-3.8 s, peak RSS 54-335 MB; alpha 1.5 4.1-5.7 s, 33-153 MB)
LARGEST = {("X", 2): 422534, ("X", 1000): 12042, ("X", 1.5): 19999,
           ("Y", 2): 28408, ("Y", 1000): 4134, ("Y", 1.5): 3515,
           ("Z", 2): 422534, ("Z", 1000): 12042, ("Z", 1.5): 19999}


def _never(*args):
    raise AssertionError("the urn was built")


def _refused(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].startswith("error: ") and "MAX_URN_WORK" in lines[0]
    return lines[0]


@pytest.mark.parametrize("variant,big_n,alpha,layer", [
    ("X", "1000000000", "2", "2"),          # once a MemoryError traceback
    ("Z", "20000", "1000", "3"),            # once a hang
    ("Y", "100000", "1", "2"),              # 2N-bit binomial weights
    ("Y", "4000", "1.5", "2"),              # the weights as Fractions beside floats
    ("X", "9" * 400, "2", "1"),             # a bound that no float can hold
    ("Z", "12043", "1000", "3"),            # just over the budget
])
def test_an_urn_above_the_budget_exits_one_before_building(variant, big_n, alpha, layer,
                                                           capsys, monkeypatch):
    monkeypatch.setattr(ellsberg, "build_urn_space", _never)
    line = _refused(["ellsberg", "--variant", variant, "--big-n", big_n, "--alpha", alpha,
                     "--u1", "0.6", "--layer", layer], capsys)
    assert "…" in line if len(big_n) > 40 else big_n in line
    assert f"variant {variant} " in line


def test_the_paradox_demo_is_refused_before_building(monkeypatch):
    monkeypatch.setattr(ellsberg, "build_urn_space", _never)
    with pytest.raises(ValueError, match="MAX_URN_WORK"):
        paradox_demo(UrnParams(10**9, 2, U1))


def test_the_estimate_charges_the_weights_to_y_alone():
    exact = UrnParams(1000, 2, U1)
    bits = math.ceil(2 * math.log2(2000))
    table = bits // 6 + 65
    assert exact.work("X") == exact.work("Z") == 2001 * table
    assert exact.work("Y") == 2001 * (table + 2000 * (bits + 350) // 22000)
    floats = UrnParams(1000, 1.5, U1)
    assert floats.work("X") == floats.work("Z") == 2001 * 1500
    assert floats.work("Y") == 2001 * (1500 + 2000)


@pytest.mark.parametrize("variant,alpha", sorted(LARGEST, key=str))
def test_the_budget_admits_each_regime_up_to_its_largest_n(variant, alpha):
    big_n = LARGEST[variant, alpha]
    assert UrnParams(big_n, alpha, U1).work(variant) <= MAX_URN_WORK
    with pytest.raises(ValueError, match="MAX_URN_WORK"):
        build_sequence(variant, UrnParams(big_n + 1, alpha, U1))


@pytest.mark.parametrize("variant,layer", [("X", "2"), ("Z", "3")])
def test_x_and_z_at_n_5000_run(variant, layer, capsys):
    assert main(["ellsberg", "--variant", variant, "--big-n", "5000", "--alpha", "2",
                 "--u1", "0.6", "--layer", layer]) == 0
    assert '"verdict": "supports modal preference"' in capsys.readouterr().out



@pytest.mark.parametrize("layer,fmt", [("2", "json"), ("1", "csv")])
def test_an_admitted_urn_prints_results_longer_than_the_digit_limit(layer, fmt, capsys):
    # at alpha = 1000 an exact value has more digits than the interpreter
    # converts to text by default: 6^1000 has 779, above 640, the least
    # limit it accepts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["ellsberg", "--variant", "X", "--big-n", "3", "--alpha", "1000",
                     "--u1", "0.6", "--layer", layer, "--format", fmt])
        out, err = capsys.readouterr()
        assert sys.get_int_max_str_digits() == 640
        # a flag is still parsed under the limit
        with pytest.raises(SystemExit) as exit_:
            main(["ellsberg", "--variant", "X", "--big-n", "9" * 700, "--alpha", "2",
                  "--u1", "0.6", "--layer", "2"])
        assert exit_.value.code == 1 and "invalid int value" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err == ""
    assert max(map(len, out.replace(",", "\n").split("\n"))) > 779
