"""A law suite reads the flags its function takes, as declared by its
signature when the command line is imported; ``main`` parses every call
with the one parser ``build_parser`` makes per process."""

import pytest

from choquet_tower import cli, laws
from choquet_tower.cli import main


def test_a_suite_wrapped_after_import_keeps_its_flags(monkeypatch, capsys):
    assert main(["laws", "dirac", "--seed", "3"]) == 0
    plain = capsys.readouterr().out
    suite = laws.SUITES["dirac"]
    monkeypatch.setitem(laws.SUITES, "dirac", lambda *args, **kw: suite(*args, **kw))
    assert main(["laws", "dirac", "--seed", "3"]) == 0
    assert capsys.readouterr().out == plain
    assert '"trials": 500' in plain


def test_main_parses_every_call_with_one_parser(monkeypatch, capsys):
    parsers = []
    parse = cli._Parser.parse_args
    monkeypatch.setattr(cli._Parser, "parse_args",
                        lambda self, argv=None: parsers.append(self) or parse(self, argv))
    argv = ["counterexample", "comonotonic"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert parsers == [cli.build_parser()] * 2
    # a parser built afresh prints the same bytes
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert main(argv) == 0
    assert outputs == [capsys.readouterr().out] * 2
    assert len(parsers) == 3 and parsers[2] is not parsers[0]


@pytest.mark.parametrize("suite", ["choquet", "dirac", "monad", "substitution", "unc-maps"])
def test_trials_past_the_cap_exit_one_before_any_trial(suite, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(laws.SUITES, suite, lambda **flags: ran.append(flags))
    assert main(["laws", suite, "--trials", str(cli.MAX_TRIALS + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    assert captured.err == f"error: trials must be at most {cli.MAX_TRIALS}\n"
    assert cli.RunConfig(f"laws {suite}", trials=cli.MAX_TRIALS).trials == cli.MAX_TRIALS


@pytest.mark.parametrize("size", ["-7", "-6", "0"])
def test_a_space_size_below_one_exits_one_before_the_tower_is_built(size, monkeypatch,
                                                                    capsys):
    # a negative size once sliced the labels from their end, so -6 and -7
    # ran the suite on a 2- and a 1-point base and passed
    built = []
    monkeypatch.setattr(laws, "build_tower", lambda *args: built.append(args))
    assert main(["laws", "monad", "--space-size", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (f"error: the monad suite needs a space size of at least 1, "
                            f"got {size}\n")
