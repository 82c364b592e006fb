"""Record the expected stdout of every query in the ``queries`` pool.

    PYTHONPATH=src python3 perfbench/record_golden.py

Draws the pool from ``queries.POOL_SEED``, runs each query through
``treesym.cli.run`` in one process and writes ``golden_queries.json`` next
to this file.  The committed file was recorded once and is the
reference every later commit is checked against; re-record it only when a
change to the CLI's output is intended.  Counts from ``enumerate --count``
are also checked against independent values before anything is written.
"""

from __future__ import annotations

import json
import os
import sys

import queries
from child import run_session

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_queries.json")


def main() -> int:
    import treesym.cli as cli

    pool = queries.draw_pool(queries.POOL_SEED)
    strata = {}
    for name, argvs in pool.items():
        results = run_session(cli.run, argvs)
        for argv, (code, out, _seconds) in zip(argvs, results):
            expected = queries.expected_count(argv)
            if code != 0 or (expected is not None and out != expected):
                print("unexpected result for %r: %r" % (argv, (code, out)),
                      file=sys.stderr)
                return 1
        strata[name] = [[argv, out] for argv, (_c, out, _s) in zip(argvs, results)]
    # One query per line, so that a change to one output is a one-line diff.
    blocks = ["%s: [\n%s\n]" % (json.dumps(name), ",\n".join(map(json.dumps, rows)))
              for name, rows in strata.items()]
    with open(GOLDEN, "w") as fh:
        fh.write('{"pool_seed": %d, "strata": {\n%s\n}}\n'
                 % (queries.POOL_SEED, ",\n".join(blocks)))
    print("wrote %d queries to %s" % (sum(map(len, strata.values())), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
