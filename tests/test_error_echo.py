"""An unreadable value is quoted by a short prefix in its one error line,
however long its text; short values keep their whole text in the message."""

import json

import pytest

from choquet_tower.cli import main
from choquet_tower.core import ECHO_CHARS, as_exact, parse_number

MB = 10 ** 6
#: (1 MB value, backend, what its message says)
LONG_VALUES = [
    ("e" * MB, "rational", "Invalid literal for Fraction: 'eeee"),
    ("1" * MB + "e99999", "rational", "1111"),
    ("9" * 4000 + " " * MB, "float", "is too large for a float"),
]


def _short_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and len(lines[0]) < 200
    return lines[0]


@pytest.mark.parametrize("value,backend,says", LONG_VALUES)
@pytest.mark.parametrize("where", ["table", "act"])
def test_long_value_in_a_space_file(value, backend, says, where, tmp_path, capsys):
    table = {"0": "0", "1": "1"}
    acts = {"f": ["1"]}
    if where == "table":
        table["1"] = value
    else:
        acts["f"] = [value]
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": ["a"], "acts": acts, "capacities": {
        "u": {"mode": "full", "values": table}}}))
    assert main(["choquet", str(path), "u", "f", "--backend", backend]) == 1
    line = _short_error_line(capsys)
    assert line.startswith("error: ") and says in line and "…" in line


@pytest.mark.parametrize("value,backend,says", LONG_VALUES)
def test_long_value_in_a_flag(value, backend, says, capsys):
    assert main(["ellsberg", "--variant", "X", "--big-n", "1", "--alpha", "1",
                 "--u1", value, "--layer", "2", "--backend", backend]) == 1
    line = _short_error_line(capsys)
    assert line.startswith("error: ") and says in line and "…" in line


def test_the_cut_keeps_a_prefix_and_short_text_whole():
    with pytest.raises(ValueError) as exc:
        as_exact("x" * 41)
    assert str(exc.value) == "Invalid literal for Fraction: '" + "x" * (ECHO_CHARS - 1) + "…"
    with pytest.raises(ValueError) as exc:
        as_exact("x" * 40)
    assert str(exc.value) == "Invalid literal for Fraction: '" + "x" * 40 + "'"
    with pytest.raises(ValueError) as exc:
        parse_number("9" * 400, "float")
    assert str(exc.value) == "9" * ECHO_CHARS + "… is too large for a float"
