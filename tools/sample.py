"""Where a CLI command spends its time, by sampling its stack.

    python3 tools/sample.py laws unc-maps --seed 7

Runs ``cli.main`` on the given arguments in this interpreter, with its
stdout captured, while the process's profiling timer (``ITIMER_PROF``,
which counts this process's CPU time) raises SIGPROF every INTERVAL
seconds.  The kernel raises it at most once per tick of its CPU-time
accounting, whatever INTERVAL asks: on a 2-CPU x86_64 Linux VM, ``laws
choquet --seed 7`` took 69 samples in 0.29 s of CPU time, one per 4 ms,
and a warm ``laws dirac --seed 7 --trials 20`` took none.  So the command
is run again in the same process until MIN_SAMPLES samples are taken, at
most MAX_RUNS times, stopping at the first run that exits non-zero or
raises; the number of runs, the samples taken and the CPU time per sample
are printed with the shares.  Each signal records the interrupted stack,
from the innermost frame out to ``cli.main``.  A function's self share is
the fraction of samples in which it was the innermost frame; its inclusive
share is the fraction in which it was anywhere on the stack, once per
sample.  The TOP functions of each are printed, as ``file:qualified
name``.  Unlike a deterministic profiler, a sample adds no cost to a call,
so many cheap calls are not overweighted.  The timer and the SIGPROF
handler are restored when the command ends, however it ends.  Standard
library only; the package is imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from choquet_tower import cli  # noqa: E402

#: seconds of CPU time between samples asked of the timer
INTERVAL = 0.0002
#: functions printed per share
TOP = 15
#: samples to take before the command stops being run again
MIN_SAMPLES = 200
#: the most times the command is run
MAX_RUNS = 1000


def _name(code: CodeType) -> str:
    return f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"


def sample(argv: list[str]) -> tuple[int, int, int, float, Counter, Counter]:
    """Run ``cli.main(argv)`` under the timer until MIN_SAMPLES are taken:
    the last exit code, the number of runs and of samples, the CPU seconds
    spent, and per function its self and inclusive sample counts."""
    own, inclusive = Counter(), Counter()
    taken = 0
    outer = sys._getframe()

    def record(signum, frame):
        nonlocal taken
        taken += 1
        own[_name(frame.f_code)] += 1
        names = set()
        while frame is not None and frame is not outer:
            names.add(_name(frame.f_code))
            frame = frame.f_back
        inclusive.update(names)

    runs = 0
    handler = signal.signal(signal.SIGPROF, record)
    start = time.process_time()
    timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        code = 0
        while code == 0 and taken < MIN_SAMPLES and runs < MAX_RUNS:
            runs += 1
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
    finally:
        # the timer first, so no signal arrives after its handler is gone
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)
    return code, runs, taken, time.process_time() - start, own, inclusive


def main(argv: list[str]) -> int:
    code, runs, taken, cpu, own, inclusive = sample(argv)
    per_sample = f"{1000 * cpu / taken:.2f}" if taken else "n/a"
    print(f"{' '.join(argv)}: exit {code}, {runs} runs, {taken} samples, "
          f"{per_sample} ms CPU per sample, timer {INTERVAL * 1000:g} ms")
    for title, counts in (("self", own), ("inclusive", inclusive)):
        print(f"top {TOP} by {title} share")
        for name, count in counts.most_common(TOP):
            print(f"{100 * count / taken:6.1f}%  {name}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
