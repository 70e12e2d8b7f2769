"""Closed-loop benchmark of the choquet-tower command line.

    python3 benchmarks/run.py --workload {urn,laws,spacefile} --seed N \\
        --seconds S --trace {0,1}

A single client runs the workload's commands one after another, each in a
fresh interpreter (``child.py``), pass after pass, until S seconds have gone
by at the end of a pass.  Every output is checked.  With ``--trace 0`` the
run reports the end-to-end metrics.  With ``--trace 1`` it runs each
command untraced and then traced, requires both to print the same bytes,
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with run facts and per-command figures, is written to
``.bench_build/choquet-bench/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import tracing
import spacegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "choquet-bench"
#: a whole run, set-up included, ends within this many seconds
RUN_LIMIT_S = 170.0

URN = {
    "ellsberg-X": "ellsberg --variant X --big-n 300 --alpha 2 --u1 0.6 --layer 2",
    "ellsberg-Y": "ellsberg --variant Y --big-n 300 --alpha 2 --u1 0.6 --layer 2",
    "ellsberg-Z": "ellsberg --variant Z --big-n 1000 --alpha 2 --u1 0.6 --layer 3",
}
#: SHA-256 of each urn command's standard output (its exit code must be 0)
URN_SHA256 = {
    "ellsberg-X":
        "09c9bc1337644d06bae13141a232cef24a10188bc24e5a7782acf06569e6da17",
    "ellsberg-Y":
        "228df30f79f5c46823a3a60b9dcefbf3c5558d6ac364e588d9ec06ea653f1b28",
    "ellsberg-Z":
        "a6bf387bf7c96f556413a116b3ee898a8276edbf701b3d49e6385d7d16f35544",
}
LAW_SUITES = ("choquet", "dirac", "monad", "substitution", "retraction",
              "ug-map", "unc-maps")
WORKLOADS = ("urn", "laws", "spacefile")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({"core.value.calls": "count", "core.value.mass_adds": "count",
                  "choquet.max_den_bits": "bits", "trace.overhead_s": "s"})
    return units


# -- commands and their output checks ---------------------------------------

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Check  # (exit code, stdout) -> None, or why the output is wrong


def expect_sha256(digest: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"stdout sha256 {got}, expected {digest}"
    return check


def expect_law_report(suite: str, seed: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            return f"exit code {rc}, stdout is not a JSON report"
        if report.get("suite") != suite or report.get("seed") != seed:
            return "the report is for another suite or seed"
        if rc != 0 or report.get("passed") is not True:
            return f"exit code {rc}, passed = {report.get('passed')}"
        return None
    return check


def expect_value(expected: Fraction) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        try:
            got = Fraction(out.strip())
        except (ValueError, ZeroDivisionError):
            return f"stdout {out[:40]!r} is not a number"
        return None if got == expected else f"printed {got}, expected {expected}"
    return check


def workload_commands(workload: str, seed: int) -> Callable[[int], list[Command]]:
    """The commands of pass i of a workload, with inputs made from the seed."""
    if workload == "urn":
        urn = [Command(name, tuple(line.split()), expect_sha256(URN_SHA256[name]))
               for name, line in URN.items()]
        return lambda i: urn
    if workload == "laws":
        def laws_pass(i: int) -> list[Command]:
            law_seed = 1000 * seed + i
            return [Command(f"laws-{suite}", ("laws", suite, "--seed", str(law_seed)),
                            expect_law_report(suite, law_seed))
                    for suite in LAW_SUITES]
        return laws_pass
    space = []
    for kind, case in spacegen.generate(seed).items():
        path = WORK / f"space-{kind}.json"
        path.write_text(case.text)
        space.append(Command(f"choquet-{kind}", ("choquet", str(path), case.capacity, "f"),
                             expect_value(case.expected)))
    return lambda i: space


# -- running commands -------------------------------------------------------

@dataclass
class Sample:
    command: str
    pass_index: int
    traced: bool
    data: Optional[dict]      # the child's report; None if it crashed
    failure: Optional[str]


def child_env() -> dict[str, str]:
    """The caller's environment without thread or import-path settings."""
    return {k: v for k, v in os.environ.items()
            if k not in ("CHOQUET_TOWER_THREADS", "PYTHONPATH")}


def run_child(argv: tuple[str, ...], timeout: float,
              spans: Optional[Path] = None) -> tuple[Optional[dict], Optional[str]]:
    """Run one command in a fresh child; traced, with its spans written, when `spans` is given."""
    traced = spans is not None
    cmd = [sys.executable, str(HERE / "child.py")]
    if traced:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"child exited {proc.returncode}: {last}"
    try:
        data = json.loads(proc.stdout.splitlines()[-1])
    except ValueError:
        return None, "the child printed no report"
    if bool(data["wrapped"]) != traced:
        return data, f"{data['wrapped']} traced functions installed, traced={traced}"
    return data, None


def measure(commands: Callable[[int], list[Command]], seconds: float,
            trace: bool, started: float) -> list[Sample]:
    """Run whole passes until `seconds` have gone by; the first pass always runs.

    With `trace`, each command runs untraced and then traced, and the two
    must print the same bytes.
    """
    samples = []
    deadline = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        for cmd in commands(index):
            for traced in (False, True) if trace else (False,):
                left = RUN_LIMIT_S - (perf_counter() - started)
                if left <= 1:
                    return samples
                spans = WORK / f"spans-{cmd.name}.json" if traced else None
                data, failure = run_child(cmd.argv, left, spans)
                if failure is None:
                    failure = cmd.check(data["rc"], data["stdout"])
                untraced = samples[-1].data if traced else None
                if failure is None and untraced and data["stdout"] != untraced["stdout"]:
                    failure = "traced stdout differs from untraced stdout"
                samples.append(Sample(cmd.name, index, traced, data, failure))
        index += 1
    return samples


# -- metrics ----------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p99.9/p99/p95/p90/p75/p50
    that has at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = values[math.ceil(p / 100 * n) - 1]
            break
    return out


def complete_passes(samples: list[Sample], traced: bool) -> list[list[Sample]]:
    """Samples grouped by pass, keeping passes whose every command reported."""
    by_pass = defaultdict(list)
    for s in samples:
        if s.traced == traced:
            by_pass[s.pass_index].append(s)
    width = max((len(group) for group in by_pass.values()), default=0)
    return [group for group in by_pass.values()
            if len(group) == width and all(s.data for s in group)]


def pass_walls(samples: list[Sample], traced: bool) -> list[float]:
    return [sum(s.data["cmd_s"] for s in group)
            for group in complete_passes(samples, traced)]


def command_times(samples: list[Sample]) -> dict[str, dict]:
    times = defaultdict(list)
    for s in samples:
        if not s.traced and s.data:
            times[s.command].append(s.data["cmd_s"])
    return {f"{name}_s": summary(values) for name, values in times.items()}


def end_to_end(samples: list[Sample]) -> dict[str, dict]:
    plain = [s.data for s in samples if not s.traced and s.data]
    return {
        "wall_s": summary(pass_walls(samples, False)),
        "setup_s": summary([d["setup_s"] for d in plain]),
        "peak_rss_mb": {"median": max(d["maxrss_kb"] for d in plain) / 1024,
                        "n": len(plain)},
    }


def per_layer(samples: list[Sample]) -> dict[str, dict]:
    """Per-pass totals of the traced commands, as medians over passes."""
    totals = []
    for group in complete_passes(samples, True):
        total = defaultdict(float)
        for s in group:
            for name, (calls, self_s) in s.data["layers"].items():
                total[f"{name}.calls"] += calls
                total[f"{name}.self_s"] += self_s
            total["core.value.calls"] += s.data["value_calls"]
            total["core.value.mass_adds"] += s.data["mass_adds"]
            total["choquet.max_den_bits"] = max(total["choquet.max_den_bits"],
                                                s.data["max_den_bits"])
        totals.append(total)
    out = {}
    for name, unit in per_layer_units().items():
        values = [t[name] for t in totals]
        if name == "trace.overhead_s":
            out[name] = {"median": statistics.median(pass_walls(samples, True))
                         - statistics.median(pass_walls(samples, False)),
                         "n": len(totals)}
        elif unit == "s":
            out[name] = summary(values)
        else:
            out[name] = {"median": int(statistics.median_low(values)), "n": len(values)}
    return out


def error_rate(samples: list[Sample]) -> float:
    """Failed commands over commands attempted."""
    return sum(bool(s.failure) for s in samples) / len(samples)


def layer_map_deviations(samples: list[Sample]) -> list[str]:
    """Where the traced counts contradict the layer map in README.md."""
    notes = set()
    for s in samples:
        if not s.traced or not s.data:
            continue
        adds = s.data["mass_adds"]
        if s.command in ("ellsberg-X", "ellsberg-Y", "laws-monad") and adds == 0:
            notes.add(f"{s.command}: core.value.mass_adds = 0, expected > 0")
        if s.command in ("ellsberg-Z", "choquet-dense", "choquet-additive") and adds:
            notes.add(f"{s.command}: core.value.mass_adds = {adds}, expected 0")
        mu_calls = s.data["layers"].get("category.mu", [0])[0]
        if s.command.startswith(("ellsberg-", "choquet-")) and mu_calls:
            notes.add(f"{s.command}: category.mu.calls = {mu_calls}, expected 0")
    return sorted(notes)


# -- run facts and report ---------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def print_table(title: str, rows: dict[str, dict], units: dict[str, str]) -> None:
    print(title)
    for name, stats in rows.items():
        extra = "  ".join(f"{k}={v}" for k, v in stats.items() if k != "median")
        print(f"  {name:<36} {stats['median']:<22} {units.get(name, 's'):<6} {extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="choquet-tower CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "choquet_tower" / "cli.py").is_file():
        sys.stderr.write(f"error: no choquet_tower sources under {ROOT / 'src'}\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    # one untimed command first: it proves the package imports, and compiles it
    _, failure = run_child(("--help",), 60)
    if failure:
        sys.stderr.write(f"error: the CLI does not start: {failure}\n")
        return 2

    commands = workload_commands(args.workload, args.seed)
    samples = measure(commands, args.seconds, bool(args.trace), started)
    failures = [s for s in samples if s.failure]
    if not complete_passes(samples, False) or (args.trace and not complete_passes(samples, True)):
        for s in failures:
            sys.stderr.write(f"FAIL {s.command} pass {s.pass_index}: {s.failure}\n")
        sys.stderr.write("error: no complete pass to measure\n")
        return 1

    if args.trace:
        metrics, units = per_layer(samples), per_layer_units()
    else:
        metrics, units = end_to_end(samples), END_TO_END
    passes = 1 + max(s.pass_index for s in samples)
    record = {
        "facts": {"python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                  "commit": commit(), "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "run_seconds": args.seconds,
                  "measured_s": perf_counter() - started, "passes": passes},
        "metrics": {name: {**stats, "unit": units[name]} for name, stats in metrics.items()},
        "commands": command_times(samples),
        "error_rate": error_rate(samples),
        "failures": [f"{s.command} pass {s.pass_index}{' traced' if s.traced else ''}: "
                     f"{s.failure}" for s in failures],
    }
    if args.trace:
        record["layer_map_deviations"] = layer_map_deviations(samples)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    facts = record["facts"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{passes} passes in {facts['measured_s']:.1f} s  python {facts['python']}  "
          f"nproc {facts['nproc']}  cpu {facts['cpu']}  commit {facts['commit']}")
    print_table("metrics:", metrics, units)
    print_table("per-command latency (untraced):", record["commands"], {})
    print(f"error_rate {record['error_rate']} fraction ({len(failures)} of {len(samples)} commands failed)")
    for line in record["failures"]:
        print(f"FAIL {line}")
    if args.trace:
        deviations = record["layer_map_deviations"]
        print("layer map: " + ("as expected" if not deviations else "; ".join(deviations)))
    print(f"full record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": len(samples), "failed": len(failures),
        "metrics": {name: {"value": stats["median"], "unit": units[name]}
                    for name, stats in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
