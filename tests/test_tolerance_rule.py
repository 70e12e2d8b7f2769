"""The exactness-and-tolerance rule is decided in ``core`` and nowhere else."""

import re
from pathlib import Path

import choquet_tower

PACKAGE = Path(choquet_tower.__file__).resolve().parent
#: tolerance literals and the removed table-or-masses switch of validate_capacity
FORBIDDEN = re.compile(r"1e-0*9|1e-12|singletons_additive", re.IGNORECASE)


def test_only_core_holds_tolerances():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")
    assert len(modules) >= 10
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in modules
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert not hits, "\n".join(hits)
