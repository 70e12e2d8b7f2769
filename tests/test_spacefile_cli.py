import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import choquet_tower
from choquet_tower import spacefile
from choquet_tower.choquet import choquet_integral
from choquet_tower.cli import main
from choquet_tower.core import Capacity, NormalizationError, additive_capacity, make_space
from choquet_tower.spacefile import MAX_SPACE_FILE_BYTES, load_space_file

EXAMPLE = {
    "points": ["A1", "A2", "A3"],
    "capacities": {
        "u1": {"mode": "singletons-additive",
               "values": {"A1": "1/3", "A2": "1/3", "A3": "1/3"}},
        "u2": {"mode": "singletons-additive",
               "values": {"A1": "1/2", "A2": "1/8", "A3": "3/8"}},
        "w": {"mode": "full",
              "values": {"000": "0", "100": "0.1", "010": "0.1", "001": "0.1",
                         "110": "0.4", "101": "0.4", "011": "0.4", "111": "1"}},
    },
    "acts": {"f": ["11", "1", "0"], "g": ["11", "10", "0"]},
}


@pytest.fixture()
def space_path(tmp_path):
    path = tmp_path / "urn.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


class TestSpaceFile:
    def test_parses_modes_and_values(self, space_path):
        loaded = load_space_file(space_path)
        assert loaded.space.points == ("A1", "A2", "A3")
        assert loaded.capacities["u1"].is_additive
        assert loaded.capacities["w"](loaded.space.subset(["A1"])) == Fraction(1, 10)
        assert loaded.acts["f"].values == (11, 1, 0)

    def test_a_string_is_a_path_never_json_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError):
            load_space_file(json.dumps(EXAMPLE))
        # a relative name starting with "{" is a file name like any other
        (tmp_path / "{odd}.json").write_text(json.dumps(EXAMPLE))
        loaded = load_space_file("{odd}.json")
        assert choquet_integral(loaded.capacities["u1"], loaded.acts["f"]) == 4

    def test_a_float_result_that_overflows_exits_one(self, tmp_path, capsys):
        # the step 1e308 - (-1e308) overflows in floats; exactly, the result is 0
        doc = {"points": ["a", "b"], "acts": {"f": [1e308, -1e308]},
               "capacities": {"u": {"mode": "full", "values": {
                   "00": 0, "10": 0.5, "01": 0.5, "11": 1}}}}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["choquet", str(path), "u", "f", "--backend", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the result is inf, not a finite float\n"
        assert main(["choquet", str(path), "u", "f"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_bitstring_orientation(self):
        doc = {"points": ["R", "B"], "capacities": {
            "w": {"mode": "full",
                  "values": {"00": "0", "10": "0.25", "01": "0.5", "11": "1"}}}}
        loaded = load_space_file(doc)
        assert loaded.capacities["w"](loaded.space.subset(["R"])) == Fraction(1, 4)
        assert loaded.capacities["w"](loaded.space.subset(["B"])) == Fraction(1, 2)

    def test_float_backend(self, space_path):
        loaded = load_space_file(space_path, backend="float")
        value = loaded.capacities["u1"](loaded.space.subset(["A1"]))
        assert isinstance(value, float)

    def test_worked_integral(self, space_path):
        loaded = load_space_file(space_path)
        assert choquet_integral(loaded.capacities["u1"], loaded.acts["f"]) == 4


class TestCli:
    def test_ellsberg_flat(self, capsys):
        code = main(["ellsberg", "--variant", "X", "--big-n", "10",
                     "--alpha", "1", "--u1", "0.6", "--layer", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "equalities"
        assert out["values"] == {"f1": ["1/5"], "f2": ["1/5"],
                                 "f3": ["2/5"], "f4": ["2/5"]}
        assert out["config"]["backend"] == "rational"

    def test_ellsberg_third_layer(self, capsys):
        code = main(["ellsberg", "--variant", "Z", "--big-n", "1",
                     "--alpha", "2", "--u1", "0.6", "--layer", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["values"]["f2"] == ["1/6"]
        assert out["verdict"] == "supports modal preference"

    def test_ellsberg_csv(self, capsys):
        code = main(["ellsberg", "--variant", "X", "--big-n", "1",
                     "--alpha", "1", "--u1", "0.6", "--layer", "2",
                     "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "act,point,value"
        assert "f1,vu,1/5" in lines

    def test_float_backend_formatting(self, capsys):
        code = main(["ellsberg", "--variant", "X", "--big-n", "1",
                     "--alpha", "1", "--u1", "0.6", "--layer", "2",
                     "--backend", "float", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert "f1,vu,0.2" in lines

    def test_bad_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["ellsberg", "--variant", "Q", "--big-n", "1",
                  "--alpha", "1", "--u1", "0.6", "--layer", "2"])
        assert err.value.code == 1

    def test_bad_params_exit_one(self, capsys):
        code = main(["ellsberg", "--variant", "X", "--big-n", "0",
                     "--alpha", "1", "--u1", "0.6", "--layer", "2"])
        capsys.readouterr()
        assert code == 1

    def test_determinism(self, capsys):
        args = ["laws", "choquet", "--seed", "7", "--trials", "40"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_laws_exit_zero(self, capsys):
        assert main(["laws", "retraction", "--grid", "2", "--depth", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert out["config"]["command"] == "laws retraction"

    def test_counterexample_comonotonic(self, capsys):
        assert main(["counterexample", "comonotonic"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["product"] == "-13/32"
        assert out["inputs_comonotonic"] and not out["images_comonotonic"]

    def test_counterexample_monad(self, capsys):
        assert main(["counterexample", "monad", "--beta", "1"]) == 0
        flat = json.loads(capsys.readouterr().out)
        assert flat["difference"] == "0"
        assert main(["counterexample", "monad", "--beta", "2"]) == 0
        bent = json.loads(capsys.readouterr().out)
        assert bent["difference"] == "4/9"

    def test_counterexample_monad_needs_beta(self, capsys):
        code = main(["counterexample", "monad"])
        capsys.readouterr()
        assert code == 1

    def test_choquet_command(self, space_path, capsys):
        assert main(["choquet", space_path, "u1", "f"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_choquet_missing_act(self, space_path, capsys):
        code = main(["choquet", space_path, "u1", "nope"])
        capsys.readouterr()
        assert code == 1

    def test_out_file(self, space_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["ellsberg", "--variant", "Y", "--big-n", "1", "--alpha",
                     "2", "--u1", "0.6", "--layer", "2", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        saved = json.loads(target.read_text())
        assert saved["values"]["f2"] == ["3/20"]


ELLSBERG = ["ellsberg", "--variant", "X", "--big-n", "1", "--alpha", "1",
            "--u1", "0.6", "--layer", "2"]


@pytest.mark.parametrize("args,flag", [
    (ELLSBERG, ["--seed", "1"]),
    (ELLSBERG, ["--trials", "5"]),
    (ELLSBERG, ["--tolerance", "1e-6"]),
    (["laws", "dirac"], ["--backend", "float"]),
    (["laws", "dirac"], ["--tolerance", "1e-6"]),
    (["laws", "dirac"], ["--format", "csv"]),
    (["counterexample", "comonotonic"], ["--seed", "1"]),
    (["counterexample", "comonotonic"], ["--trials", "5"]),
    (["counterexample", "comonotonic"], ["--format", "csv"]),
    (["choquet", "space.json", "u1", "f"], ["--seed", "1"]),
    (["choquet", "space.json", "u1", "f"], ["--trials", "5"]),
    (["choquet", "space.json", "u1", "f"], ["--tolerance", "1e-6"]),
    (["choquet", "space.json", "u1", "f"], ["--format", "csv"]),
])
def test_unread_flag_is_usage_error(args, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(args + flag)
    assert err.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("args,unread", [
    (["laws", "ug-map", "--trials", "3", "--grid", "9", "--depth", "0",
      "--space-size", "0"], "--trials, --grid, --depth, --space-size"),
    (["laws", "retraction", "--trials", "0"], "--trials"),
    (["laws", "choquet", "--grid", "2"], "--grid"),
    (["laws", "unc-maps", "--depth", "3"], "--depth"),
    (["laws", "substitution", "--space-size", "2"], "--space-size"),
    (["laws", "dirac", "--space-size", "2"], "--space-size"),
])
def test_laws_flag_the_suite_does_not_read_exits_one(args, unread, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the {args[1]} suite does not read {unread}"]


@pytest.mark.parametrize("flags,unread", [
    (["--beta", "2"], "--beta"),
    (["--backend", "rational"], "--backend"),
    (["--backend", "float"], "--backend"),
    (["--tolerance", "0.5"], "--tolerance"),
    (["--tolerance", "0.5", "--backend", "float", "--beta", "2"],
     "--beta, --backend, --tolerance"),
])
def test_counterexample_comonotonic_refuses_the_flags_it_does_not_read(flags, unread,
                                                                       capsys):
    assert main(["counterexample", "comonotonic", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: counterexample comonotonic does not read {unread}"]


def test_counterexample_monad_reads_backend_and_tolerance(capsys):
    monad = ["counterexample", "monad", "--beta", "2"]
    assert main(monad) == 0
    plain = capsys.readouterr().out
    assert main(monad + ["--backend", "rational", "--tolerance", "1e-9"]) == 0
    assert capsys.readouterr().out == plain
    config = json.loads(plain)["config"]
    assert (config["backend"], config["tolerance"]) == ("rational", 1e-9)
    assert main(monad + ["--backend", "float", "--tolerance", "1e-6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["config"]["backend"], out["config"]["tolerance"]) == ("float", 1e-6)
    assert out["difference"] == "0.444444444444"


@pytest.mark.parametrize("args", [
    ["laws", "monad", "--trials", "500", "--grid", "2", "--space-size", "2",
     "--depth", "3"],
    ["laws", "retraction", "--grid", "2", "--space-size", "2", "--depth", "3"],
    ["laws", "dirac", "--trials", "500"],
    ["laws", "choquet", "--trials", "500"],
    ["laws", "substitution", "--trials", "500"],
    ["laws", "unc-maps", "--trials", "500"],
])
def test_laws_read_flags_at_their_defaults_change_nothing(args, capsys):
    assert main(args) == 0
    explicit = capsys.readouterr().out
    assert main(args[:2]) == 0
    assert capsys.readouterr().out == explicit


@pytest.mark.parametrize("args", [
    ["laws", "monad", "--grid", "3", "--space-size", "3"],
    ["laws", "monad", "--depth", "9"],
    ["laws", "choquet", "--trials", "0"],
    ["counterexample", "monad", "--beta", "2", "--tolerance", "0"],
    ["counterexample", "monad", "--beta", "2.5", "--backend", "float", "--tolerance", "nan"],
    ["counterexample", "monad", "--beta", "2.5", "--backend", "float", "--tolerance", "inf"],
    ["counterexample", "monad", "--beta", "2.5", "--backend", "float", "--tolerance", "1e400"],
    ["laws", "retraction", "--space-size", "1"],
    ["laws", "monad", "--grid", "0"],
    ["laws", "retraction", "--grid", "0"],
    ["laws", "monad", "--depth", "0"],
    ["laws", "monad", "--depth", "1"],
    ["laws", "retraction", "--depth", "0"],
    ["laws", "retraction", "--depth", "1"],
    ["ellsberg", "--variant", "X", "--big-n", "2", "--alpha", "1e400",
     "--u1", "0.5", "--layer", "2"],
    ["ellsberg", "--variant", "X", "--big-n", "2", "--alpha", "1e400",
     "--u1", "0.5", "--layer", "2", "--backend", "float"],
    ["ellsberg", "--variant", "X", "--big-n", "2", "--alpha", "1e300",
     "--u1", "0.5", "--layer", "2", "--backend", "float"],
    ["counterexample", "monad", "--beta", "1e400"],
    ["counterexample", "monad", "--beta", "1e400", "--backend", "float"],
    ["counterexample", "monad", "--beta", "1000", "--backend", "float"],
])
def test_bad_input_exits_one_with_one_line(args, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("variant", ["X", "Y", "Z"])
@pytest.mark.parametrize("alpha", ["1", "2"])
def test_ellsberg_layer_one_exits_zero(variant, alpha, capsys):
    code = main(["ellsberg", "--variant", variant, "--big-n", "2", "--alpha",
                 alpha, "--u1", "0.6", "--layer", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["layer"] == 1 and out["verdict"] == "mixed"


@pytest.mark.parametrize("args,minimum", [
    (["laws", "monad", "--depth", "1"], "depth of at least 2"),
    (["laws", "retraction", "--depth", "1"], "depth of at least 2"),
    (["laws", "monad", "--grid", "0"], "grid >= 1"),
])
def test_tower_lower_bounds_are_named(args, minimum, capsys):
    assert main(args) == 1
    assert minimum in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("doc,message", [
    ([1], "a space file must be a JSON object"),
    ({"points": "ab"}, "'points' must be a list of strings"),
    ({"points": ["a", 1]}, "'points' must be a list of strings"),
    ({"points": ["a"], "capacities": ["u"]}, "'capacities' must be a JSON object"),
    ({"points": ["a"], "capacities": {"u": "1"}}, "capacity 'u' must be a JSON object"),
    ({"points": ["a"], "capacities": {"u": {"values": ["1"]}}},
     "the values of capacity 'u' must be a JSON object"),
    ({"points": ["a"], "capacities": {"u": {"mode": "full"}}},
     "the values of capacity 'u' must be a JSON object"),
    ({"points": ["a"], "acts": ["1"]}, "'acts' must be a JSON object"),
    ({"points": ["a"], "acts": {"f": "1"}}, "act 'f' must be a list of values"),
    ({"points": ["a", "b"], "acts": {"f": [True, False]}},
     "expected a number, got True"),
    ({"points": ["a", "b"], "capacities": {"u": {
        "mode": "singletons-additive", "values": {"a": "1/2", "b": "1/2", "Q": "7"}}}},
     "singleton values for labels that are not points: 'Q'"),
    ({"points": ["a"], "acts": {"f": ["1e400"]}}, "1e400 is too large for a float"),
])
def test_malformed_space_file_exits_one(doc, message, tmp_path, capsys):
    # only the float backend converts, so only it refuses a value past its range
    backend = "float" if message.endswith("for a float") else "rational"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_space_file(str(path), backend=backend)
    assert main(["choquet", str(path), "u", "f", "--backend", backend]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("capacity,act,message", [
    ("u1", "nope", "no act 'nope' in the space file; it defines act names: f, g"),
    ("nope", "f", "no capacity 'nope' in the space file; "
                  "it defines capacity names: u1, u2, w"),
])
def test_missing_name_lists_the_file_names(space_path, capacity, act, message,
                                           capsys):
    assert main(["choquet", space_path, capacity, act]) == 1
    assert _one_error_line(capsys) == f"error: {message}"


def test_choquet_reads_a_file_whose_name_starts_with_a_brace(tmp_path, monkeypatch,
                                                              capsys):
    # the command's argument is always a path, though the library reads a
    # string starting with "{" as JSON text
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{x}.json").write_text(json.dumps({
        "points": ["a", "b"],
        "capacities": {"u": {"mode": "singletons-additive",
                             "values": {"a": "1/2", "b": "1/2"}}},
        "acts": {"f": ["1", "0"]}}))
    assert main(["choquet", "{x}.json", "u", "f"]) == 0
    assert capsys.readouterr().out == "1/2\n"
    for name in ("{y}.json", "y.json"):
        assert main(["choquet", name, "u", "f"]) == 1
        assert _one_error_line(capsys) == (
            f"error: [Errno 2] No such file or directory: {name!r}")


def test_json_numbers_parse_exactly():
    loaded = load_space_file({
        "points": ["a", "b"],
        "capacities": {"u": {"mode": "singletons-additive",
                             "values": {"a": 0.1, "b": "9/10"}}},
        "acts": {"f": [1, 0]}})
    assert choquet_integral(loaded.capacities["u"], loaded.acts["f"]) == Fraction(1, 10)


def test_dense_point_cap_acts_before_parsing():
    points = [f"p{i}" for i in range(21)]
    doc = {"points": points,
           "capacities": {"w": {"mode": "full", "values": {"0" * 21: "x"}}}}
    with pytest.raises(ValueError, match="capped at 20 points, got 21"):
        load_space_file(doc)


def test_a_space_file_over_the_byte_bound_is_refused_before_it_is_read(tmp_path,
                                                                       monkeypatch, capsys):
    assert MAX_SPACE_FILE_BYTES == 50_000_000

    def opened(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was read")

    monkeypatch.setattr(Path, "open", opened)
    path = tmp_path / "big.json"
    path.touch()
    os.truncate(path, MAX_SPACE_FILE_BYTES + 1)  # sparse: no byte is written
    message = (f"space files are capped at {MAX_SPACE_FILE_BYTES} bytes, "
               f"got {MAX_SPACE_FILE_BYTES + 1}")
    with pytest.raises(ValueError, match=message):
        load_space_file(path)
    assert main(["choquet", str(path), "u", "f"]) == 1
    assert _one_error_line(capsys) == f"error: {message}"
    # a file of exactly the bound is read, and a decoded dict is never sized
    os.truncate(path, MAX_SPACE_FILE_BYTES)
    with pytest.raises(AssertionError, match="big.json was read"):
        load_space_file(path)
    assert load_space_file(EXAMPLE).space.points == ("A1", "A2", "A3")


def test_a_space_file_is_decoded_as_read_text_decodes_it(tmp_path):
    doc = dict(EXAMPLE, points=["A1", "A2", "A\u00e73"])
    doc["capacities"] = {"u": {"mode": "singletons-additive",
                               "values": {"A1": "1/2", "A2": "1/4", "A\u00e73": "1/4"}}}
    path = tmp_path / "crlf.json"
    path.write_bytes(json.dumps(doc, indent=1, ensure_ascii=False).replace("\n", "\r\n")
                     .encode())
    loaded, decoded = load_space_file(path), load_space_file(json.loads(path.read_text()))
    assert loaded.space == decoded.space
    assert loaded.capacities["u"] == decoded.capacities["u"]


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero here")
def test_a_device_of_no_stated_size_is_read_one_byte_past_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(spacefile, "MAX_SPACE_FILE_BYTES", 10)
    message = "space files are capped at 10 bytes, got more from a file that states 0"
    with pytest.raises(ValueError, match=message):
        load_space_file("/dev/zero")
    assert main(["choquet", "/dev/zero", "u", "f"]) == 1
    assert _one_error_line(capsys) == f"error: {message}"


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero here")
def test_the_command_on_dev_zero_exits_1_under_a_memory_cap():
    # the child alone runs under a 1 GB address-space cap, in which reading
    # /dev/zero to its end would end in a MemoryError
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def capped():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    package = Path(choquet_tower.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "choquet_tower", "choquet", "/dev/zero", "u", "f"],
                         env=env, capture_output=True, text=True, timeout=60,
                         preexec_fn=capped)
    assert time.perf_counter() - start < 10
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (f"error: space files are capped at {MAX_SPACE_FILE_BYTES} bytes, "
                          f"got more from a file that states 0\n")


def test_an_unnormalized_mass_vector_is_named_by_its_sum_with_no_value_read(monkeypatch):
    # the message is built from the sum the check took, not from a walk
    # of the full mask through Capacity.value
    def value(self, mask):
        raise AssertionError("Capacity.value was called")

    monkeypatch.setattr(Capacity, "value", value)
    points = [f"p{i}" for i in range(200_000)]
    doc = {"points": points,
           "capacities": {"u": {"mode": "singletons-additive",
                                "values": dict.fromkeys(points, "1")}}}
    with pytest.raises(NormalizationError, match=r"^singleton masses sum to 200000, not 1$"):
        load_space_file(doc)
    with pytest.raises(NormalizationError, match=r"^singleton masses sum to 1.5, not 1$"):
        additive_capacity(make_space(["a", "b"]), [0.5, 1.0])
