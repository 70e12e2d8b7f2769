"""The benchmark's tracer resolves every name it wraps: a traced callable
that is removed or renamed in the package fails here, not only in every
traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves_unwrapped():
    # loaded by path and only read: the benchmarks directory is not a package
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # resolves each callable of TRACED, Capacity.value and the run_*_suite functions
    assert tracing.wrapped_count() == 0
