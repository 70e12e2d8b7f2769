"""Tests of the benchmark itself: run with `python -m pytest benchmarks -q`."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import run  # noqa: E402
import spacegen  # noqa: E402
from choquet_tower.cli import main as cli_main  # noqa: E402
from choquet_tower.spacefile import load_space_file  # noqa: E402


def _change_one_digit(text: str) -> str:
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_oracle_catches_changed_digit_and_counts_it(tmp_path):
    case = spacegen.generate(3, points=4)["dense"]
    path = tmp_path / "space.json"
    path.write_text(case.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["choquet", str(path), case.capacity, "f"])
    check = run.expect_value(case.expected)
    assert check(rc, out.getvalue()) is None

    corrupted = _change_one_digit(out.getvalue())
    assert check(rc, corrupted) is not None
    report = json.dumps({"suite": "dirac", "seed": 5, "passed": True})
    assert run.expect_law_report("dirac", 5)(0, _change_one_digit(report)) is not None

    # a real child whose output does not match its oracle is a failed sample
    argv = ("choquet", str(path), case.capacity, "f")
    commands = [run.Command("right", argv, check),
                run.Command("wrong", argv, run.expect_value(case.expected + 1))]
    samples = run.measure(lambda i: commands, 0, False, perf_counter())
    assert [(s.command, s.pass_index) for s in samples] == [("right", 0), ("wrong", 0)]
    assert samples[0].failure is None
    assert samples[1].failure == f"printed {case.expected}, expected {case.expected + 1}"
    assert run.error_rate(samples) == 0.5
    assert run.error_rate(samples[1:]) == 1.0


def test_stored_digest_catches_changed_digit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(run.URN["ellsberg-X"].split())
    check = run.expect_sha256(run.URN_SHA256["ellsberg-X"])
    assert check(rc, out.getvalue()) is None
    assert check(rc, _change_one_digit(out.getvalue())) is not None


def test_space_files_are_deterministic_per_seed():
    first, again, other = (spacegen.generate(seed) for seed in (8, 8, 9))
    assert first == again
    assert first["dense"].text != other["dense"].text
    assert first["additive"].text != other["additive"].text


def test_dense_table_is_monotone_and_not_additive():
    doc = json.loads(spacegen.generate(4)["dense"].text)
    n = len(doc["points"])
    table = [Fraction(0)] * (1 << n)
    for key, value in doc["capacities"]["w"]["values"].items():
        table[int(key[::-1], 2)] = Fraction(value)
    assert table[0] == 0 and table[-1] == 1
    assert all(table[mask] <= table[mask | 1 << i]
               for mask in range(1 << n) for i in range(n))
    assert table[0b11] != table[0b01] + table[0b10]


def test_seed_code_accepts_additive_table_as_additive():
    case = spacegen.generate(4)["additive"]
    loaded = load_space_file(json.loads(case.text))
    assert loaded.capacities["a"].is_additive


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    (_, o_start, o_end, o_parent), = [s for s in tracer.spans if s[0] == "outer"]
    inner_spans = [s for s in tracer.spans if s[0] == "inner"]
    assert o_parent == -1 and all(s[3] == 0 for s in inner_spans)
    covered = sum(end - start for _, start, end, _ in inner_spans)
    assert abs(tracer.self_s["outer"] - (o_end - o_start - covered)) < 1e-9
    assert tracer.calls == {"outer": 1, "inner": 2}


def test_traced_child_wraps_imported_names_and_prints_the_same_bytes(tmp_path):
    case = spacegen.generate(5, points=4)["additive"]
    path = tmp_path / "space.json"
    path.write_text(case.text)
    argv = ("choquet", str(path), case.capacity, "f")
    plain, failure = run.run_child(argv, 60)
    assert failure is None and plain["wrapped"] == 0
    traced, failure = run.run_child(argv, 60, tmp_path / "spans.json")
    assert failure is None and traced["stdout"] == plain["stdout"]
    # cli calls choquet_integral and load_space_file through its own imports
    assert traced["layers"]["choquet.choquet_integral"][0] == 1
    assert traced["layers"]["spacefile.load_space_file"][0] == 1
    assert traced["layers"]["cli.main"][0] == 1
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == traced["spans"]


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
