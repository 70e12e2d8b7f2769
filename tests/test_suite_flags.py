"""A law suite reads the flags its function takes, as declared by its
signature when the command line is imported."""

from choquet_tower import laws
from choquet_tower.cli import main


def test_a_suite_wrapped_after_import_keeps_its_flags(monkeypatch, capsys):
    assert main(["laws", "dirac", "--seed", "3"]) == 0
    plain = capsys.readouterr().out
    suite = laws.SUITES["dirac"]
    monkeypatch.setitem(laws.SUITES, "dirac", lambda *args, **kw: suite(*args, **kw))
    assert main(["laws", "dirac", "--seed", "3"]) == 0
    assert capsys.readouterr().out == plain
    assert '"trials": 500' in plain
