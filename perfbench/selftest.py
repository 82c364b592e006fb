"""Self-test of the benchmark's own accounting and tracing.

    python3 perfbench/selftest.py      (from the root of a checkout)

Shows that a wrong output, a timeout or a wrong query answer is counted in
``failed`` and yields no time; that two traced passes give identical
counts; that the query pool is reproducible from its seed and its counts
match independent values; and that ``BENCHMARK.json`` names exactly the
metrics the benchmark prints.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import queries
import run
import tracer

COUNT_S3 = ["enumerate", "--family", "S", "--n", "3", "--count"]
WORKLOADS = list(run.WORKLOADS)


def check(condition: bool, message: str) -> None:
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def fake_workload(name: str, argv: list, expected: str) -> None:
    run.VERDICTS[name] = (argv, expected)
    run.WORKLOADS[name] = (name,)


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    try:
        fake_workload("right", COUNT_S3, "6\n")
        metrics, _lines, tally = run.measure("right", 1, 0.5)
        check(metrics is not None and tally.failed == 0,
              "a right output gives metrics and no failure")

        fake_workload("wrong", COUNT_S3, "7\n")
        metrics, _lines, tally = run.measure("wrong", 1, 0.5)
        check(metrics is None and tally.failed_frac > 0
              and tally.reasons == {"wrong: wrong output": tally.failed},
              "a wrong output counts as failed and gives no time "
              "(failed_frac %.3f)" % tally.failed_frac)

        fake_workload("slow", *run.VERDICTS["mobius-fibers"])
        saved, run.CMD_TIMEOUT_S = run.CMD_TIMEOUT_S, 0.3
        try:
            metrics, _lines, tally = run.measure("slow", 1, 0.5)
        finally:
            run.CMD_TIMEOUT_S = saved
        check(metrics is None and tally.failed_frac > 0
              and any("timeout" in r for r in tally.reasons),
              "a timeout counts as failed and gives no time "
              "(failed_frac %.3f)" % tally.failed_frac)

        golden = run.Golden()
        runner = run.Runner("queries", 1, golden)
        target = next(argv for argv in runner.session if argv[0] == "mobius")
        golden.expected[tuple(target)] = "wrong\n"
        outcome = runner.run(run.SESSION)
        check(outcome is None
              and runner.tally.failed == runner.session.count(target),
              "a wrong query answer counts as failed, once per occurrence")

        fake_workload("traced", ["verify", "--suite", "hopf-module-plus", "--n", "3"],
                      "OK: restricted Hopf-module law through degree 3\n")
        metrics, lines, tally, repeated = run.measure_traced("traced", 1, 0)
        check(metrics is not None and repeated and tally.failed == 0,
              "two traced passes give identical counts")
        check(metrics["hopf_modules.plus_action.calls"][0] > 0
              and metrics["trees_core.restricted_splittings.items"][0] > 0,
              "the traced run sees calls and yielded items")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    pool = queries.draw_pool(queries.POOL_SEED)
    check(pool == golden.pool, "the query pool is reproducible from its seed")
    counted = [(argv, out) for argv in sum(pool.values(), [])
               if (out := queries.expected_count(argv)) is not None]
    check(counted and all(run.Golden().expected[tuple(a)] == out for a, out in counted),
          "recorded counts equal n!, Catalan and the listed bi-leveled counts")
    check(queries.draw_session(pool, 5) == queries.draw_session(pool, 5)
          and queries.draw_session(pool, 5) != queries.draw_session(pool, 6),
          "a session is a function of its seed")

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
          and all(m["unit"] == run.END_TO_END[m["name"]] for m in bench["end_to_end"]),
          "BENCHMARK.json lists the end-to-end metrics the run prints")
    check(sorted(m["name"] for m in bench["per_layer"])
          == sorted(tracer.result_names() + ["trace.overhead_s"]),
          "BENCHMARK.json lists the per-layer metrics the traced run prints")
    check([w["name"] for w in bench["workloads"]] == WORKLOADS,
          "BENCHMARK.json lists the workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
