"""Byte-identical urn reports: stdout and stderr digests of ``ellsberg`` runs.

Each row is (arguments after ``ellsberg``, exit code, SHA-256 of standard
output, SHA-256 of standard error).  The digests were taken from the
``Fraction``-table implementation of the urn, before its tables, closed
forms and binomial layer moved to integer numerators, so any change in a
printed digit, a value's formatting or an error line fails here.  They
cover the README commands, layer-1 CSV for X and Y, the float backend,
non-whole exponents (float tables), whole exponents 1 to 3, Z at layer 1,
the three benchmark ``urn`` commands, Y at alpha 1.5 and X and Y in floats at
N = 200 to 300, and two input errors.
"""

import contextlib
import hashlib
import io

import pytest

from choquet_tower.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

PINNED = [
    ("--variant X --big-n 10 --alpha 1 --u1 0.6 --layer 2",
     0, "b041e5913448df50caf6ac97364a2cc364b0d7853e2f0292931a82f38d9f2009",
     EMPTY),
    ("--variant Z --big-n 1 --alpha 2 --u1 0.6 --layer 3 --format csv",
     0, "5bd77b6fd116b57c5a9d85e17eabed1fd74f070927c67eafede207e8d35ad587",
     EMPTY),
    ("--variant X --big-n 20 --alpha 2 --u1 0.6 --layer 1 --format csv",
     0, "d9844a60dea35410b8d997053999569d0592b8fa2cac6a18c003c0ee17d1fb00",
     EMPTY),
    ("--variant Y --big-n 20 --alpha 2 --u1 0.6 --layer 1 --format csv",
     0, "d9844a60dea35410b8d997053999569d0592b8fa2cac6a18c003c0ee17d1fb00",
     EMPTY),
    ("--variant Y --big-n 20 --alpha 2 --u1 0.6 --layer 2 --backend float",
     0, "a2eebcf7cadb65a5f404ce2d62c2607e8dd2f39c09b4fa4a166986341f146383",
     EMPTY),
    ("--variant Z --big-n 20 --alpha 2 --u1 0.6 --layer 3 --backend float",
     0, "463703692eb12441ef711224edfe955058e425a190728f1df704a8136a7bc409",
     EMPTY),
    ("--variant X --big-n 20 --alpha 1.5 --u1 0.6 --layer 2",
     0, "dd065f7aa026700a9702f21d5e97ad8ff018ecc6dbd16741993da8ac2ee15dac",
     EMPTY),
    ("--variant Y --big-n 20 --alpha 7/3 --u1 0.6 --layer 2",
     0, "f32d6e4e59b429fb1d0c988a8dafc3c86ef04946cd297bde33363d95cd84d6d5",
     EMPTY),
    ("--variant Z --big-n 20 --alpha 3 --u1 0.6 --layer 3",
     0, "4ae1152f311356c27d67e55f9e0bd781716f322c63d380b883bbe5031ca12d73",
     EMPTY),
    ("--variant Z --big-n 5 --alpha 2 --u1 0.6 --layer 1",
     0, "e03e81d2a0964ca079c8c15a5ef4dc9cc53aed433fafd2334b28b7b5015ee14d",
     EMPTY),
    ("--variant Y --big-n 30 --alpha 3 --u1 2/3 --layer 2",
     0, "d2a4434527acdd92d2fd680f32d15d69cccdf4099b2991c64a5754457ccfc174",
     EMPTY),
    ("--variant Z --big-n 10 --alpha 1.5 --u1 0.6 --layer 3",
     0, "5cf66a322bd764bf71c2a7f74c30080d3009e4b876bc016dd0688efa618967b3",
     EMPTY),
    ("--variant X --big-n 20 --alpha 7/3 --u1 0.6 --layer 1 --format csv",
     0, "8e47866f70e595df2edb6cc1b988095a0a11fff352acf164d7b8d4f075029ee9",
     EMPTY),
    ("--variant X --big-n 300 --alpha 2 --u1 0.6 --layer 2",
     0, "09c9bc1337644d06bae13141a232cef24a10188bc24e5a7782acf06569e6da17",
     EMPTY),
    ("--variant Y --big-n 300 --alpha 2 --u1 0.6 --layer 2",
     0, "228df30f79f5c46823a3a60b9dcefbf3c5558d6ac364e588d9ec06ea653f1b28",
     EMPTY),
    ("--variant Z --big-n 1000 --alpha 2 --u1 0.6 --layer 3",
     0, "a6bf387bf7c96f556413a116b3ee898a8276edbf701b3d49e6385d7d16f35544",
     EMPTY),
    # moderate N off the exact path: float tables with the Fraction-mass
    # walk of layer 2, and exact tables against float acts
    ("--variant Y --big-n 200 --alpha 1.5 --u1 0.6 --layer 2",
     0, "f6104be612a036e03cc429022a57f606f9a7f9a396e387ea0ecbc49e384fa5c4",
     EMPTY),
    ("--variant X --big-n 300 --alpha 2 --u1 0.6 --layer 2 --backend float",
     0, "f2a41ca2b724956f31b9ecd117ef0e892ecffdcf954e360cc6d682350447eda8",
     EMPTY),
    ("--variant Y --big-n 300 --alpha 2 --u1 0.6 --layer 2 --backend float",
     0, "03025e376efd4b9a8c7bdd33d03a310c76b3174dbf7e535c1aace661ac948a92",
     EMPTY),
    ("--variant X --big-n 4 --alpha 1001 --u1 0.6 --layer 2",
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ebc41024d31b29b193edc150c9978d3271111bb026ba6db633b10001ef43b8f7"),
    ("--variant Y --big-n 4 --alpha 2 --u1 0.6 --layer 3",
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "73f3eb80015f349777af3d3caf9701043f83139fac0e016157124ddc9f785468"),
]


@pytest.mark.parametrize("args, code, out_sha, err_sha", PINNED,
                         ids=[row[0] for row in PINNED])
def test_urn_report_bytes_are_pinned(args, code, out_sha, err_sha):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["ellsberg", *args.split()])
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == err_sha
