"""An unreadable value is quoted by a short prefix in its one error line,
however long its text; short values keep their whole text in the message.
So are the keys, labels and names a space file or a flag gives."""

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


def _cut(char: str) -> str:
    """How a message quotes the 1 MB text ``char * MB``."""
    return "'" + char * (ECHO_CHARS - 1) + "…"


FULL = {"mode": "full", "values": {"0": "0", "1": "1"}}
#: (space file, capacity flag, what its message says) per long outside text
LONG_TEXTS = {
    "subset key": ({"points": ["a"], "capacities": {"u": {"mode": "full", "values": {
        "0": "0", "k" * MB: "1"}}}}, "u",
        f"subset key {_cut('k')} must be a 1-character bitstring"),
    "foreign label": ({"points": ["a"], "capacities": {"u": {
        "mode": "singletons-additive", "values": {"a": "1", "q" * MB: "0"}}}},
        "u", f"singleton values for labels that are not points: {_cut('q')}"),
    "missing label": ({"points": ["a", "m" * MB], "capacities": {"u": {
        "mode": "singletons-additive", "values": {"a": "1"}}}},
        "u", f"missing singleton value for {_cut('m')}"),
    "duplicated long point": ({"points": ["p" * MB] * 2}, "u",
                              f"duplicate point label {_cut('p')}"),
    "duplicate among many points": ({"points": list(map(str, range(100_000))) + ["7"]},
                                    "u", "duplicate point label '7'"),
    "capacity name": ({"points": ["a"], "capacities": {"c" * MB: "1"}}, "u",
                      f"capacity {_cut('c')} must be a JSON object"),
    "capacity mode": ({"points": ["a"], "capacities": {"u": {"mode": "z" * MB}}}, "u",
                      f"unknown capacity mode {_cut('z')}"),
    "values of a capacity": ({"points": ["a"], "capacities": {"c" * MB: {}}}, "u",
                             f"the values of capacity {_cut('c')} must be"),
    "act name": ({"points": ["a"], "acts": {"a" * MB: "1"}}, "u",
                 f"act {_cut('a')} must be a list of values"),
    "defined names": ({"points": ["a"], "capacities": {"c" * MB: FULL}}, "u",
                      "no capacity 'u' in the space file; it defines capacity "
                      "names: " + "c" * ECHO_CHARS + "…"),
    "asked name": ({"points": ["a"], "capacities": {"u": FULL}}, "n" * MB,
                   f"no capacity {_cut('n')} in the space file"),
}


@pytest.mark.parametrize("doc,capacity,says", LONG_TEXTS.values(), ids=LONG_TEXTS)
def test_long_text_from_a_space_file_or_flag(doc, capacity, says, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"acts": {"f": ["1"]}, **doc}))
    assert main(["choquet", str(path), capacity, "f"]) == 1
    line = _short_error_line(capsys)
    assert line.startswith("error: ") and says in line
