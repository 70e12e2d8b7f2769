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
    # a fresh interpreter, as the tool is run: a warm process runs this
    # command in less CPU time than one tick of the kernel's CPU timers
    out = subprocess.run([sys.executable, str(Path(sample.__file__)), *COMMAND],
                         capture_output=True, text=True, check=True).stdout
    taken = int(re.search(r"exit 0, (\d+) samples", out).group(1))
    inclusive = out.split("by inclusive share\n")[1]
    share = float(re.search(r"([\d.]+)%  cli\.py:main$", inclusive, re.M).group(1))
    assert taken > 0 and share >= 90


@pytest.mark.parametrize("argv", [COMMAND, ["laws", "no-such-suite"]])
def test_the_handler_and_the_timer_are_restored_however_the_command_ends(argv):
    before = signal.getsignal(signal.SIGPROF)
    # an unknown suite leaves through argparse's SystemExit
    with contextlib.suppress(SystemExit):
        sample.sample(argv)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
