"""Byte-identical law-suite reports: stdout digests of ``laws`` runs.

Each row is (arguments after ``laws``, exit code, SHA-256 of standard
output).  The digests were taken before the retraction and
monotone-composition laws moved onto the tower's one-capacity projection,
so a change in a trial count, a verdict or a report field fails here.  They
cover all seven suites at ``--seed 7`` and the retraction suite on a
3-point base and on a grid-3 tower.  A report records its seed but not the
tower flags, so the last two rows share a digest.
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
     0, "7e5245c6e098a6ffc0c3eeaa52e185b11991d9781ad79e21d47ec75bfa145e67"),
    ("substitution --seed 7",
     0, "529ec0b270ad9ae5178c47969b6550d736469315865d28d03ee43b1c2d11b36c"),
    ("retraction --seed 7",
     0, "76006b4c0a9d87bb27b52a791dc699ea974b1b1b82f1e0f0c6a78ddf3f2c5296"),
    ("ug-map --seed 7",
     0, "867d7da98cdfda26a1de29d6f09bed6df87a06d63d70087d8f5d6b06a7602a3a"),
    ("unc-maps --seed 7",
     0, "c00c79a0cb6f4badb97f5469621cd8aa9348ce0000e519918629ad2805a68302"),
    ("retraction --space-size 3",
     0, "004a2da35d461a0711e8c1ff8f83686cf5a7dacb6c933368718026f3af88cb64"),
    ("retraction --grid 3 --depth 3",
     0, "004a2da35d461a0711e8c1ff8f83686cf5a7dacb6c933368718026f3af88cb64"),
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
