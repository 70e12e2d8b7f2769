"""``sample.py`` samples a CLI command's stack and restores the timer after.

    python -m pytest tools
"""

import contextlib
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import sample

COMMAND = ["laws", "dirac", "--seed", "7", "--trials", "20"]


def test_a_run_in_a_fresh_interpreter_samples_inside_the_cli_entry():
    # a fresh interpreter, as the tool is run
    out = subprocess.run([sys.executable, str(Path(sample.__file__)), *COMMAND],
                         capture_output=True, text=True, check=True).stdout
    runs, taken = map(int, re.search(r"exit 0, (\d+) runs, (\d+) samples, [\d.]+ ms CPU "
                                     r"per sample", out).groups())
    inclusive = out.split("by inclusive share\n")[1]
    share = float(re.search(r"([\d.]+)%  cli\.py:main$", inclusive, re.M).group(1))
    assert 1 <= runs <= sample.MAX_RUNS and taken >= sample.MIN_SAMPLES and share >= 90


def test_a_short_command_is_run_again_in_process_until_it_has_enough_samples():
    # one warm run takes less CPU time than one tick of the kernel's CPU
    # timers, so it alone may take no sample
    code, runs, taken, cpu, own, inclusive = sample.sample(COMMAND)
    assert code == 0 and 1 < runs <= sample.MAX_RUNS and cpu > 0
    assert taken >= sample.MIN_SAMPLES == 200
    assert sum(own.values()) == taken
    assert inclusive["cli.py:main"] >= 0.95 * taken


def test_a_failing_command_is_run_once():
    code, runs, *_ = sample.sample(["laws", "dirac", "--trials", "0"])
    assert (code, runs) == (1, 1)


@pytest.mark.parametrize("argv", [COMMAND, ["laws", "no-such-suite"]])
def test_the_handler_and_the_timer_are_restored_however_the_command_ends(argv):
    before = signal.getsignal(signal.SIGPROF)
    # an unknown suite leaves through argparse's SystemExit
    with contextlib.suppress(SystemExit):
        sample.sample(argv)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
