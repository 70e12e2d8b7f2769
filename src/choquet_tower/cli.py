"""Command-line surface: urn reports, law suites, counterexamples, integrals.

Exit codes: 0 ok, 1 usage or input error, 2 a mathematically anchored
verdict failed (judged only at the scalar urn layers, where layered values
that disagree with the closed form fail too), 3 a law suite found a
counterexample or a trial raised.  Each subcommand accepts only the flags
it reads.  Same seed and flags yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .core import (VALUE_TOL, Act, FiniteSpace, Frozen, Number, _echo,
                   additive_capacity, is_exact, parse_number, values_close)

if TYPE_CHECKING:
    from .ellsberg import EllsbergReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_LAW = 3
BACKENDS = ("rational", "float")
#: the most trials a law suite runs: 10 000 take ``laws choquet``, the slowest, 4-5 s
MAX_TRIALS = 10_000


class RunConfig(Frozen):
    """Reproducibility block embedded in every JSON report.

    Fields a subcommand has no flag for keep their defaults.
    """

    def __init__(self, command: str, seed: int = 0, trials: int = 1,
                 backend: str = "rational", tolerance: float = VALUE_TOL,
                 format: str = "json", out: Optional[str] = None):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(tolerance):
            raise ValueError("tolerance must be finite")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}")
        self.__dict__.update(command=command, seed=seed, trials=trials,
                             backend=backend, tolerance=tolerance, format=format,
                             out=out)

    def to_dict(self) -> dict:
        """The fields by name, in constructor order."""
        return dict(vars(self))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def format_number(x: Number, backend: str) -> str:
    """A result as report text, exact in the rational backend.  An exact
    one may have more digits than the interpreter turns into text by
    default (thousands at alpha = 1000), so that limit is lifted only while
    it is written; flags and space files are parsed under it.  A float
    result that is not finite (a step that overflowed) is refused."""
    if backend == "rational" and is_exact(x):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(Fraction(x))
        finally:
            sys.set_int_max_str_digits(limit)
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"the result is {value}, not a finite float")
    return f"{value:.12g}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_payload(report: EllsbergReport, config: RunConfig) -> dict:
    return {
        "config": config.to_dict(),
        "variant": report.variant,
        "layer": report.layer,
        "params": {"big_n": report.params.big_n,
                   "alpha": format_number(report.params.alpha, config.backend),
                   "u1": format_number(report.params.u1, config.backend)},
        "points": list(report.point_labels),
        "values": {name: [format_number(v, config.backend) for v in vals]
                   for name, vals in report.values.items()},
        "f1_vs_f2": report.f1_vs_f2,
        "f3_vs_f4": report.f3_vs_f4,
        "verdict": report.verdict,
        "paradox_represented": report.paradox_represented,
    }


def _to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_csv(report: EllsbergReport, config: RunConfig) -> str:
    lines = ["act,point,value"]
    for act, point, value in report.rows():
        lines.append(f"{act},{point},{format_number(value, config.backend)}")
    return "\n".join(lines) + "\n"


def cmd_ellsberg(args) -> int:
    from .ellsberg import UrnParams, ellsberg_report
    config = RunConfig(command="ellsberg", backend=args.backend,
                       format=args.format, out=args.out)
    params = UrnParams(big_n=args.big_n,
                       alpha=parse_number(args.alpha, args.backend),
                       u1=parse_number(args.u1, args.backend))
    report = ellsberg_report(args.variant, params, args.layer)
    if args.format == "csv":
        _emit(_report_csv(report, config), args.out)
    else:
        _emit(_to_json(_report_payload(report, config)), args.out)
    if report.layer == 1:
        # the capacity-indexed profile is pointwise incomparable by
        # construction; only the scalar layers carry a verdict
        return EXIT_OK
    alpha_one = report.params.alpha == 1
    if alpha_one and report.verdict != "equalities":
        return EXIT_VERDICT
    if not alpha_one and report.verdict != "supports modal preference":
        return EXIT_VERDICT
    return EXIT_OK


#: defaults of the law-suite flags other than --seed and --out
LAW_FLAG_DEFAULTS = {"trials": 500, "grid": 2, "depth": 3, "space_size": 2}
#: the flags each suite's function takes, in its parameter order, so that
#: building the parser loads no suite; any other flag is an input error
SUITE_READS = {"choquet": ["trials"], "dirac": ["trials"],
               "monad": ["trials", "grid", "space_size", "depth"],
               "substitution": ["trials"], "retraction": ["grid", "depth", "space_size"],
               "ug-map": [], "unc-maps": ["trials"]}


def cmd_laws(args) -> int:
    from .laws import SUITES
    reads = SUITE_READS[args.suite]
    given = {flag: getattr(args, flag) for flag in LAW_FLAG_DEFAULTS
             if getattr(args, flag) is not None}
    unread = [f"--{flag.replace('_', '-')}" for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"the {args.suite} suite does not read {', '.join(unread)}")
    flags = {**LAW_FLAG_DEFAULTS, **given}
    config = RunConfig(command=f"laws {args.suite}", seed=args.seed,
                       trials=flags["trials"], out=args.out)
    report = SUITES[args.suite](
        seed=args.seed, **{flag: flags[flag] for flag in reads})
    payload = {"config": config.to_dict(), **report.to_dict()}
    _emit(_to_json(payload), args.out)
    return EXIT_OK if report.passed else EXIT_LAW


def cmd_counterexample(args) -> int:
    from .category import monad_counterexample
    from .choquet import are_comonotonic
    from .uncertainty import UncertaintySpace, xi
    given = {flag: getattr(args, flag) for flag in ("beta", "backend", "tolerance")
             if getattr(args, flag) is not None}
    if args.which == "comonotonic" and given:
        raise ValueError("counterexample comonotonic does not read "
                         + ", ".join(f"--{flag}" for flag in given))
    config = RunConfig(command=f"counterexample {args.which}", out=args.out,
                       **{flag: value for flag, value in given.items() if flag != "beta"})
    if args.which == "comonotonic":
        space = FiniteSpace(("A1", "A2", "A3"))
        us = UncertaintySpace(space, (
            ("u1", additive_capacity(space, [Fraction(1, 3)] * 3)),
            ("u2", additive_capacity(space,
                                     [Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)])),
        ))
        f = Act(space, (11, 1, 0))
        g = Act(space, (11, 10, 0))
        xf, xg = xi(us, f), xi(us, g)
        d_f = xf.values[0] - xf.values[1]
        d_g = xg.values[0] - xg.values[1]
        payload = {
            "config": config.to_dict(),
            "inputs_comonotonic": are_comonotonic(f, g),
            "difference_f": format_number(d_f, "rational"),
            "difference_g": format_number(d_g, "rational"),
            "product": format_number(d_f * d_g, "rational"),
            "images_comonotonic": are_comonotonic(xf, xg),
        }
        _emit(_to_json(payload), args.out)
        expected = (d_f == Fraction(-13, 8) and d_g == Fraction(1, 4)
                    and d_f * d_g == Fraction(-13, 32)
                    and are_comonotonic(f, g) and not are_comonotonic(xf, xg))
        return EXIT_OK if expected else EXIT_LAW

    if args.beta is None:
        raise ValueError("counterexample monad requires --beta")
    result = monad_counterexample(parse_number(args.beta, config.backend))
    payload = {
        "config": config.to_dict(),
        "beta": format_number(result.beta, config.backend),
        "average_then_integrate": format_number(result.lhs, config.backend),
        "integrate_expectations": format_number(result.rhs, config.backend),
        "difference": format_number(result.difference, config.backend),
        "difference_formula": format_number(result.difference_formula, config.backend),
        "printed_count": result.printed_count,
        "actual_count": result.actual_count,
    }
    _emit(_to_json(payload), args.out)
    matches = values_close(result.difference, result.difference_formula,
                           config.tolerance)
    if result.beta == 1:
        matches = matches and result.difference == 0
    return EXIT_OK if matches else EXIT_LAW


def _named(kind: str, named: dict, name: str):
    if name not in named:
        raise ValueError(f"no {kind} {_echo(repr(name))} in the space file; it "
                         f"defines {kind} names: {_echo(', '.join(named)) or 'none'}")
    return named[name]


def cmd_choquet(args) -> int:
    from .choquet import choquet_integral
    from .spacefile import load_space_file
    loaded = load_space_file(Path(args.space_file), backend=args.backend)
    value = choquet_integral(_named("capacity", loaded.capacities, args.capacity),
                             _named("act", loaded.acts, args.act))
    _emit(format_number(value, args.backend) + "\n", args.out)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: it holds no state
    between parses, and loads no module a subcommand runs; each ``cmd_*``
    imports its own when it runs."""
    parser = _Parser(prog="choquet-tower",
                     description="hierarchical uncertainty computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ellsberg", help="layered urn report")
    p.add_argument("--variant", choices=("X", "Y", "Z"), required=True)
    p.add_argument("--big-n", dest="big_n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--u1", required=True)
    p.add_argument("--layer", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--backend", choices=BACKENDS, default="rational")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ellsberg)

    p = sub.add_parser("laws", help="run a seeded law suite")
    p.add_argument("suite", choices=sorted(SUITE_READS))
    p.add_argument("--seed", type=int, default=0)
    for flag in LAW_FLAG_DEFAULTS:  # None marks a flag left out
        p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("counterexample", help="reproduce a counterexample")
    p.add_argument("which", choices=("comonotonic", "monad"))
    # None marks a flag left out: comonotonic reads none of the three
    p.add_argument("--beta")
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("choquet", help="integrate an act from a space file")
    p.add_argument("space_file")
    p.add_argument("capacity")
    p.add_argument("act")
    p.add_argument("--backend", choices=BACKENDS, default="rational")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_choquet)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad flags, inputs and sizes exit 1 with one line.

    An exact result too large to print in the float backend is an
    ``OverflowError``, and a float result that is not finite a
    ``ValueError``; both exit 1 the same way.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
