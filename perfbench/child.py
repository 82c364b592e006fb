"""The process the benchmark spawns for traced commands and query sessions.

    python3 perfbench/child.py [--trace OUT] cli ARG...
        Run one CLI command through ``treesym.cli.run``; exit with its code.
    python3 perfbench/child.py [--trace OUT] session QUERIES RESULTS
        Run a list of queries (a JSON list of argument lists) one after the
        other in this process, as a library or REPL user would, and write
        ``[[exit code, stdout, seconds], ...]`` to RESULTS.

With ``--trace OUT`` the package's public functions are wrapped before the
first command and the per-metric summary is written to OUT at the end.
Untraced single commands are run without this file, as a CLI user runs them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def run_session(run, queries: list) -> list:
    results = []
    for argv in queries:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        results.append([code, out.getvalue(), time.perf_counter() - start])
    return results


def main(argv: list) -> int:
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    import treesym.cli as cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        code = cli.run(rest)
    elif mode == "session":
        with open(rest[0]) as fh:
            queries = json.load(fh)
        results = run_session(cli.run, queries)
        with open(rest[1], "w") as fh:
            json.dump(results, fh)
        code = 0
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.flush()
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
