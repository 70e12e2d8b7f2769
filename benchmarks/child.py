"""Run one choquet-tower CLI command in this fresh interpreter and report it.

    python3 benchmarks/child.py [--spans FILE] -- <cli arguments>

Prints one JSON line: the exit code, the captured standard output, the
set-up time (importing ``choquet_tower.cli`` and building its parser), the
in-process time of ``cli.main(argv)``, the peak RSS, and how many traced
functions are installed.  With ``--spans`` the functions in
``tracing.TRACED`` are wrapped before the command runs, the line also
carries per-function call counts and self times, and the raw spans are
written to FILE.  Only modules the interpreter loads at start-up are
imported before the set-up is timed, so set-up is what a CLI user pays.
"""

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--") if "--" in args else len(args)
    options, argv = args[:split], args[split + 1:]
    spans = options[options.index("--spans") + 1] if "--spans" in options else None

    sys.path.insert(0, SRC)
    start = perf_counter()
    import choquet_tower.cli as cli
    cli.build_parser()
    setup_s = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"choquet_tower was imported from {cli.__file__}, not {SRC}\n")
        return 90

    import io
    import json
    import resource

    import tracing

    tracer = tracing.Tracer() if spans is not None else None
    if tracer is not None:
        tracing.install(tracer)
    wrapped = tracing.wrapped_count()

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        cmd_s = perf_counter() - start
        sys.stdout = real_stdout

    result = {"rc": rc, "stdout": captured.getvalue(), "setup_s": setup_s,
              "cmd_s": cmd_s, "wrapped": wrapped,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result.update(tracer.report())
        tracer.write_spans(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
