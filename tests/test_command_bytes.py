"""Byte-identical ``counterexample`` and ``choquet`` output: stdout and stderr
digests.

Each row is (arguments, exit code, SHA-256 of standard output, SHA-256 of
standard error).  The digests were taken before ``uncertainty.epsilon`` and
the dense branch of ``category.mu`` went back to their value definitions,
from the integer-form code they replaced, so any change in a printed digit,
a value's formatting, an exit code or an error line fails here.  They cover
the comonotonicity counterexample, the monad counterexample (which
integrates ``epsilon``'s acts) at whole and non-whole beta in both
backends, and ``choquet`` on a small ``full`` file and a
``singletons-additive`` file in both backends, with one unknown act name.
``{full}`` and ``{additive}`` in the arguments stand for those two files.
"""

import contextlib
import hashlib
import io
import json

import pytest

from choquet_tower.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

FILES = {
    "full": {
        "points": ["R", "B", "Y"],
        "capacities": {"w": {"mode": "full", "values": {
            "000": "0", "100": "0.1", "010": "1/7", "001": "0.1",
            "110": "0.4", "101": "2/5", "011": "1/2", "111": "1"}}},
        "acts": {"f": ["11", "-2/3", "5"], "g": ["0.25", "3", "0.25"]},
    },
    "additive": {
        "points": ["R", "B", "Y"],
        "capacities": {"u": {"mode": "singletons-additive",
                             "values": {"R": "1/2", "B": "1/8", "Y": "3/8"}}},
        "acts": {"f": ["11", "1", "0"], "g": ["-1/3", "2.5", "7"]},
    },
}

PINNED = [
    ("counterexample comonotonic",
     0, "24be421a3ffff2a22f8bcbfe5450ffa9a4c0444a0bdfe66be53d660a152c5398",
     EMPTY),
    ("counterexample monad --beta 1",
     0, "dfc051b52d924784f43cd56105f820ff98034275c32cccb0a4b52e4d2220644f",
     EMPTY),
    ("counterexample monad --beta 1 --backend float",
     0, "ff0deaec1831aa4ba216af0aa332d3654a7c6345a91db6c6dcae96b35df2a8b9",
     EMPTY),
    ("counterexample monad --beta 2",
     0, "18bb7e59c5932f3fb55aa16e10e83288289ff79a377cd0e0a5160b9265113eaa",
     EMPTY),
    ("counterexample monad --beta 2 --backend float",
     0, "74bf6feba7ec795acded46dc2cfe39cef0038f05f61a9d1a82731b3d59d812d0",
     EMPTY),
    ("counterexample monad --beta 1.5",
     0, "e46eb2ba9cabe1abe9692376b5782cb308b6548b56b68874f629c6181a1d8d85",
     EMPTY),
    ("counterexample monad --beta 1.5 --backend float",
     0, "d06749729f681e6fcec4f16fe9a32f2aed126dfdff96cacd1b7dcb0d56b3f2a2",
     EMPTY),
    ("choquet {full} w f",
     0, "0e03747b33ea4eb3fcedb15d3d99bbc9c1211eb2ae8c5f36e52635c012159b6c",
     EMPTY),
    ("choquet {full} w g --backend float",
     0, "05bd913f9255fbf2f576a023fe82243c94985ab0f0d556f77c36371f780f519c",
     EMPTY),
    ("choquet {full} w f --backend float",
     0, "5d43fc4b98938fad12641b4620e757b00d80de17a0715bf7ed816b33ac41df47",
     EMPTY),
    ("choquet {additive} u f",
     0, "bf96b22c3cb40b1727cd03d256b4ac380e6a424a8940f9f593d89c0d2e91ae92",
     EMPTY),
    ("choquet {additive} u g",
     0, "0b75bb4fec86a34de131c9f62327ba7608416224cf6d04fed2215aeff87ed461",
     EMPTY),
    ("choquet {additive} u g --backend float",
     0, "6862a91cb30e013ebb3eac2b1149cfd0cea49d3b28520fdb459c948ded1427a0",
     EMPTY),
    ("choquet {additive} u h",
     1, EMPTY,
     "1282b7c900283e4dcad241ebbb5e47aa9dd10b0856725b28b55426c6d207b909"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pinned(args: str, directory) -> tuple[int, str, str]:
    """Write the space files into a directory, run one row's command and
    return its exit code and the digests of its stdout and stderr."""
    paths = {}
    for name, doc in FILES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([word.format(**paths) for word in args.split()])
    return rc, _sha(out.getvalue()), _sha(err.getvalue())


@pytest.mark.parametrize("args, code, out_sha, err_sha", PINNED,
                         ids=[row[0] for row in PINNED])
def test_command_bytes_are_pinned(args, code, out_sha, err_sha, tmp_path):
    assert run_pinned(args, tmp_path) == (code, out_sha, err_sha)
