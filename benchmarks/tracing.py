"""Wrap the package's public functions from outside and time them as spans.

Used by ``child.py`` in traced runs.  ``install`` replaces each callable in
``TRACED`` wherever the package holds a reference to it; the wrappers keep
spans (name, start, end, parent) in memory and add up calls and self time
per span name.  ``Capacity.value`` is only counted, without spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

#: traced callables per layer (module); "Class.method" names a method
TRACED = {
    "core": ("validate_capacity", "pushforward"),
    "choquet": ("choquet_integral", "decompose"),
    "uncertainty": ("xi", "epsilon", "check_separated"),
    "hierarchy": ("value_function", "xi_chain", "integrate_family"),
    "ellsberg": ("build_urn_space", "binomial_family", "closed_form_values"),
    "category": ("mu", "is_unc_map", "is_mp_unc_map", "is_ug_map",
                 "substitution_check"),
    "tower": ("build_tower", "iota", "GridTower.find_name"),
    "spacefile": ("load_space_file",),
    "cli": ("main",),
}
#: every run_*_suite function of the laws module is traced under this name
SUITES_SPAN = "laws.suites"


def span_names() -> list[str]:
    """Span names in report order, one per traced callable or group."""
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns] + [SUITES_SPAN]


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters.

    A span's self time is its duration minus the durations of its direct
    child spans; the command runs on one thread, so children never overlap.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []      # [span index, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.value_calls = 0
        self.mass_adds = 0
        self.max_den_bits = 0

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                duration = end - start
                self.spans[index] = (name, start, end, parent)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
            if on_result is not None:
                on_result(result)
            return result

        traced.__traced__ = fn
        return traced

    def note_integral(self, result) -> None:
        if isinstance(result, (int, Fraction)):
            self.max_den_bits = max(self.max_den_bits,
                                    Fraction(result).denominator.bit_length())

    def counted_value(self, value):
        def counted(cap, mask):
            self.value_calls += 1
            if getattr(cap, "_masses", None) is not None:
                self.mass_adds += int(mask).bit_count()
            return value(cap, mask)

        counted.__traced__ = value
        return counted

    def report(self) -> dict:
        return {"layers": {name: [self.calls[name], self.self_s[name]]
                           for name in self.calls},
                "value_calls": self.value_calls,
                "mass_adds": self.mass_adds,
                "max_den_bits": self.max_den_bits,
                "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "choquet_tower" or name.startswith("choquet_tower.")]


def _targets():
    """Yield (span name, owner, attribute) for every traced callable."""
    for layer, fns in TRACED.items():
        module = importlib.import_module(f"choquet_tower.{layer}")
        for fn in fns:
            owner_name, _, attr = fn.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            yield f"{layer}.{fn}", owner, attr
    laws = importlib.import_module("choquet_tower.laws")
    for attr in dir(laws):
        if attr.startswith("run_") and attr.endswith("_suite"):
            yield SUITES_SPAN, laws, attr


def wrapped_count() -> int:
    """How many traced callables are currently replaced by wrappers."""
    count = sum(hasattr(getattr(owner, attr), "__traced__")
                for _, owner, attr in _targets())
    core = importlib.import_module("choquet_tower.core")
    return count + hasattr(core.Capacity.value, "__traced__")


def install(tracer: Tracer) -> None:
    """Wrap every traced callable wherever the package holds a reference.

    Module functions are replaced in each package module that imported
    them, and in module-level registries such as ``laws.SUITES``; methods
    are replaced on their class.
    """
    by_id = {}
    for name, owner, attr in _targets():
        original = getattr(owner, attr)
        on_result = tracer.note_integral if name == "choquet.choquet_integral" else None
        wrapper = tracer.wrap(name, original, on_result)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            by_id[id(original)] = wrapper
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in by_id:
                        value[key] = by_id[id(item)]
    core = importlib.import_module("choquet_tower.core")
    core.Capacity.value = tracer.counted_value(core.Capacity.value)
