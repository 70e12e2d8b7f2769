"""Which lines of the package the benchmark workloads run.

    python3 tools/traffic.py

Runs pass 0 of each workload at seed 1, with the commands and output checks
``benchmarks/run.py`` gives it, in this interpreter through ``cli.main``,
under the standard library's line counter, ``trace.Trace``.
Then prints, per module, the executable lines of its functions that no
workload ran, as ranges.  Module and class bodies run at import, so only
function bodies are counted.  A change that merges or deletes code paths can
check here which of them the workloads reach.  Exits 1 when a command's
output fails its check, as the trace then shows a broken run.
"""

from __future__ import annotations

import contextlib
import dis
import io
import sys
import tempfile
import trace
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import run as bench  # noqa: E402  benchmarks/run.py, read only

import choquet_tower  # noqa: E402
from choquet_tower import cli  # noqa: E402

#: a code object's flag for a function body, as opposed to a module or class body
CO_OPTIMIZED = 0x1
PACKAGE = Path(choquet_tower.__file__).parent


def executable_lines(code: CodeType) -> set[int]:
    """Lines of the function bodies in ``code`` and the code nested in it.

    A line counts when an instruction after the function's prologue (up to
    its RESUME, all on the ``def`` line) starts on it.
    """
    lines: set[int] = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    if code.co_flags & CO_OPTIMIZED:
        resume = next((ins.offset for ins in dis.get_instructions(code)
                       if ins.opname == "RESUME"), -1)
        lines.update(line for start, _, line in code.co_lines()
                     if line is not None and start > resume)
    return lines


def package_lines() -> dict[str, set[int]]:
    """Executable lines of each module, keyed by the file name its code carries."""
    return {str(path): executable_lines(compile(path.read_text(), str(path), "exec"))
            for path in sorted(PACKAGE.glob("*.py"))}


def run_traced(workloads: list[str], seed: int) -> tuple[set[tuple[str, int]], list[str]]:
    """Run pass 0 of each workload, counting lines outside the standard
    library: the (file, line) pairs that ran, and one message per command
    whose output failed its check."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    failures = []
    with tempfile.TemporaryDirectory() as work:
        bench.WORK = Path(work)  # where the spacefile workload writes its inputs
        for workload in workloads:
            for cmd in bench.workload_commands(workload, seed)(0):
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rc = tracer.runfunc(cli.main, list(cmd.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                problem = cmd.check(rc, out.getvalue())
                if problem:
                    failures.append(f"{cmd.name}: {problem}")
    return set(tracer.results().counts), failures


def unrun(workloads: list[str], seed: int) -> tuple[dict[str, list[int]], list[str]]:
    """The executable lines no workload ran, sorted, keyed by module file
    name (``core.py``), and the failed output checks."""
    executable = package_lines()
    ran, failures = run_traced(workloads, seed)
    missed = {Path(name).name: sorted(line for line in lines if (name, line) not in ran)
              for name, lines in executable.items()}
    return missed, failures


def ranges(missed: list[int], executable: set[int]) -> str:
    """Missed lines as ranges, one per run of executable lines missed in a
    row: "12-15, 40"."""
    missing, spans, in_span = set(missed), [], False
    for line in sorted(executable):
        if line in missing:
            if in_span:
                spans[-1][1] = line
            else:
                spans.append([line, line])
        in_span = line in missing
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    workloads, seed = list(bench.WORKLOADS), 1
    missed, failures = unrun(workloads, seed)
    executable = {Path(name).name: lines for name, lines in package_lines().items()}
    print(f"workloads {', '.join(workloads)}, seed {seed}, pass 0")
    for module, lines in missed.items():
        total = len(executable[module])
        if not total:
            continue
        print(f"{module}: {total - len(lines)} of {total} lines ran"
              + (f"; not run: {ranges(lines, executable[module])}" if lines else ""))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
