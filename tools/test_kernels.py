"""``kernels.py`` times the urn's kernels and pins what each one outputs.

    python -m pytest tools
"""

import kernels


def test_every_kernel_gives_its_pinned_output(capsys):
    assert kernels.main(repeat=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(kernels.DIGESTS)
    assert not any(line.endswith("FAIL") for line in lines)


def test_a_changed_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(kernels.DIGESTS, "xi Z urn, four bets", "0" * 64)
    assert kernels.main(repeat=1) == 1
    assert "xi Z urn, four bets" in next(line for line in capsys.readouterr().out.splitlines()
                                         if line.endswith("FAIL"))
