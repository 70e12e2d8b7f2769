"""Byte-identical law-suite reports: stdout digests of ``laws`` runs.

Each row is (arguments after ``laws``, exit code, SHA-256 of standard
output).  The digests were taken before the retraction and
monotone-composition laws moved onto the tower's one-capacity projection,
so a change in a trial count, a verdict or a report field fails here.  They
cover all seven suites at ``--seed 7`` and the retraction suite on a
3-point base and on a grid-3 tower.  A report's ``config`` records every
flag its suite reads, the tower flags included, so those two rows differ,
and ``config.trials`` is 1 for a suite without ``--trials``; only the
``config`` blocks of the monad, retraction and ug-map rows changed when
they started doing so.
"""

import contextlib
import hashlib
import io

import pytest

from choquet_tower.cli import main

PINNED = [
    ("choquet --seed 7",
     0, "d1ab61ca6fa66980b70c8c08bb0a8b192a93a8f01fb43e026bce5d23eb3d4710"),
    ("dirac --seed 7",
     0, "26dba8c2db011e9695031682fd4af7243449813a7fb85a01617ce9f6c22783ca"),
    ("monad --seed 7",
     0, "631225c872d7249f3384eae1b77a7677b9e1a1edbc6c671232cb700452341c1c"),
    ("substitution --seed 7",
     0, "529ec0b270ad9ae5178c47969b6550d736469315865d28d03ee43b1c2d11b36c"),
    ("retraction --seed 7",
     0, "2a676d6f81314ec77a8d661146adee5cbb8e58c88183dda314ed40b3e9547f06"),
    ("ug-map --seed 7",
     0, "887795aa9015af47d4009ebf0d1b9faaab37996cd0940c0b667cc496851173fd"),
    ("unc-maps --seed 7",
     0, "c00c79a0cb6f4badb97f5469621cd8aa9348ce0000e519918629ad2805a68302"),
    ("retraction --space-size 3",
     0, "5bd1ced207f6e803054ae57f7526da03ed8427b1f74dd38d5258262e6b7420cc"),
    ("retraction --grid 3 --depth 3",
     0, "e0c108126a117c179b3d2634823e5645f1abd69460230f2d86990bcc2ff9ac97"),
]


@pytest.mark.parametrize("args, code, out_sha", PINNED,
                         ids=[row[0] for row in PINNED])
def test_law_report_bytes_are_pinned(args, code, out_sha):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["laws", *args.split()])
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == out_sha
    assert err.getvalue() == ""
