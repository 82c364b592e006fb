"""The treesym benchmark: time to verdict, a query session, layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing but byte code and
runs the package from ``src/``.  Workloads (see ``BENCHMARK.json``):

* ``orders``: ``verify`` interval-retract and mobius-fibers at n = 6;
* ``algebra``: ``verify`` hopf-module-plus, hopf-module-bbslash and
  coinvariants at n = 6, kappa at n = 7, and ``series --quotients
  --order 300``;
* ``queries``: one process running a seeded session of point queries
  (``mobius``, ``map``, ``op``, ``enumerate --count``) through
  ``treesym.cli.run``, caches kept across queries.

Each verify or series command runs in a fresh process, as a CLI user runs
it, and is timed from spawn to exit.  The run cycles through the
workload's commands, in an order drawn from ``--seed``, until ``--seconds``
have passed and every command has run; it reports trimmed means.  Every
output is checked: verdict lines against the paper's claims written out
below, query output against ``golden_queries.json`` and, for counts,
against independent values.  A command that exits wrongly, prints wrongly
or times out is counted in ``failed`` and contributes no time.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
their times scaled by the speed of the machine as a reference process
measures it in the same run (see ``REFERENCE_S``); the lines above it give
the raw times: the time to each verdict, the query latency percentiles,
set-up and the reference process itself.  With ``--trace 1`` the run
alternates an untraced and a traced pass over the commands (at least two
traced passes) and reports per-layer self times (median over traced
passes) and counts, which must repeat exactly across the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import queries
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 5
CMD_TIMEOUT_S = 90.0
# Every command is killed at this many seconds into the run, so that a run
# ends within 180 s even when a command hangs.
DEADLINE_S = 165.0

CLI_MAIN = "from treesym.cli import main; main()"

REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_OUT = "15299\n"
# The end-to-end times are scaled by REFERENCE_S over the run's trimmed mean
# wall time of the reference process, sampled twice before every command:
# they read as seconds on a machine where the reference takes REFERENCE_S,
# about its median on the 2-core x86 VM where the benchmark was tuned.  On a
# shared machine whose speed changes for minutes at a time, the scaled
# times stay steady where the raw ones do not; the raw ones are reported.
REFERENCE_S = 0.15

# name -> (CLI arguments, expected stdout).  The verdicts are the paper's
# claims; the sign report lists the four nonnegative quotients S/M, S/Y,
# M/Y, M+/Y, the trivially nonnegative M+/M, and the first negative
# coefficient of every other quotient.
VERDICTS = {
    "interval-retract": (
        ["verify", "--suite", "interval-retract", "--n", "6"],
        "OK: interval retract verified through degree 6\n"),
    "mobius-fibers": (
        ["verify", "--suite", "mobius-fibers", "--n", "6"],
        "OK: Mobius values agree across fibers through degree 6\n"),
    "hopf-module-plus": (
        ["verify", "--suite", "hopf-module-plus", "--n", "6"],
        "OK: restricted Hopf-module law through degree 6\n"),
    "hopf-module-bbslash": (
        ["verify", "--suite", "hopf-module-bbslash", "--n", "6"],
        "OK: transported structure consistent through degree 6\n"),
    "kappa": (
        ["verify", "--suite", "kappa", "--n", "7"],
        "OK: bijection verified through degree 7\n"),
    "coinvariants": (
        ["verify", "--suite", "coinvariants", "--n", "6"],
        "OK: coinvariant dimensions match through degree 6\n"),
    "series-quotients": (
        ["series", "--quotients", "--order", "300"],
        "M/S    mixed-sign   first_negative=4\n"
        "M/Y    nonnegative  first_negative=None\n"
        "M+/M   nonnegative  first_negative=None\n"
        "M+/S   mixed-sign   first_negative=8\n"
        "M+/Y   nonnegative  first_negative=None\n"
        "S/M    nonnegative  first_negative=None\n"
        "S/Y    nonnegative  first_negative=None\n"
        "Y/M    mixed-sign   first_negative=3\n"
        "Y/S    mixed-sign   first_negative=3\n"),
}

SESSION = "session"
WORKLOADS = {
    "orders": ("interval-retract", "mobius-fibers"),
    "algebra": ("hopf-module-plus", "hopf-module-bbslash", "kappa",
                "coinvariants", "series-quotients"),
    "queries": (SESSION,),
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TREESYM_MAX_N"}
    env["PYTHONPATH"] = SRC
    # The children read the byte code compiled at the start and write none.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Fixed string hashing, so that set iteration order, and with it every
    # traced count, repeats from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


class Outcome(NamedTuple):
    """One spawned process: exit code, wall seconds, peak RSS."""

    code: int
    seconds: float
    rss_mb: float
    stdout: str
    timed_out: bool


def spawn(args: list, timeout: float, env: dict) -> Outcome:
    """Run ``python3 ARGS`` to completion or until ``timeout`` seconds.

    Waits for the process itself (no polling), so the wall time is spawn
    to exit; a timer thread kills it through a pidfd when time is up.
    """
    out_path = os.path.join(WORK, "stdout")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.path.join(WORK, "stderr"), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + args, env,
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    killed = []

    def kill():
        killed.append(True)
        try:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
        os.close(pidfd)
    seconds = time.perf_counter() - start
    with open(out_path) as fh:
        stdout = fh.read()
    timed_out = bool(killed) and os.WIFSIGNALED(status)
    return Outcome(os.waitstatus_to_exitcode(status), seconds,
                   usage.ru_maxrss / 1024.0, stdout, timed_out)


class Tally:
    """Attempted and failed commands; a failure never yields a time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def check(self, label: str, outcome: Outcome, expected) -> bool:
        """Count one command; true when it exited 0 and printed ``expected``."""
        self.attempted += 1
        if outcome.timed_out:
            reason = "timeout"
        elif outcome.code != 0:
            reason = "exit %d" % outcome.code
        elif expected is not None and outcome.stdout != expected:
            reason = "wrong output"
        else:
            return True
        self.fail(label, reason)
        return False

    def fail(self, label: str, reason: str, count: int = 1) -> None:
        self.failed += count
        key = "%s: %s" % (label, reason)
        self.reasons[key] = self.reasons.get(key, 0) + count

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Golden:
    """The recorded query pool and the expected stdout of each query."""

    def __init__(self):
        with open(os.path.join(HERE, "golden_queries.json")) as fh:
            data = json.load(fh)
        self.pool = {name: [argv for argv, _out in rows]
                     for name, rows in data["strata"].items()}
        self.expected = {tuple(argv): out for rows in data["strata"].values()
                         for argv, out in rows}


class Runner:
    """Runs one workload's commands, checks them and keeps the samples."""

    def __init__(self, workload: str, seed: int, golden: Golden = None):
        self.names = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.env = child_env()
        self.tally = Tally()
        self.rss_mb = 0.0
        self.golden = golden
        self.session = []
        if SESSION in self.names:
            self.golden = golden or Golden()
            self.session = queries.draw_session(self.golden.pool, seed)
            self.session_path = os.path.join(WORK, "session.json")
            with open(self.session_path, "w") as fh:
                json.dump(self.session, fh)
        self.latencies = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _spawn(self, args: list) -> Outcome:
        outcome = spawn(args, min(CMD_TIMEOUT_S, self.remaining()), self.env)
        self.rss_mb = max(self.rss_mb, outcome.rss_mb)
        return outcome

    def reference(self) -> float:
        """Seconds from spawn to exit of the reference process, or None.

        Its memory is not the program's, so it stays out of the peak RSS.
        """
        outcome = spawn([REFERENCE], min(CMD_TIMEOUT_S, self.remaining()), self.env)
        ok = self.tally.check("reference", outcome, REFERENCE_OUT)
        return outcome.seconds if ok else None

    def setup(self) -> float:
        """Seconds from spawn to exit of ``import treesym.cli``, or None."""
        outcome = self._spawn(["-c", "import treesym.cli"])
        return outcome.seconds if self.tally.check("setup", outcome, "") else None

    def run(self, name: str, trace_path: str = None) -> Outcome:
        """Run one command; its outcome, or None when it failed."""
        prefix = [os.path.join(HERE, "child.py")]
        if trace_path is not None:
            prefix += ["--trace", trace_path]
        if name == SESSION:
            return self._run_session(prefix)
        argv, expected = VERDICTS[name]
        args = (prefix + ["cli"] if trace_path else ["-c", CLI_MAIN]) + argv
        outcome = self._spawn(args)
        return outcome if self.tally.check(name, outcome, expected) else None

    def _run_session(self, prefix: list) -> Outcome:
        results_path = os.path.join(WORK, "results.json")
        if os.path.exists(results_path):
            os.remove(results_path)
        outcome = self._spawn(prefix + ["session", self.session_path, results_path])
        if outcome.timed_out or outcome.code != 0 \
                or not os.path.exists(results_path):
            # The whole session counts as failed: its queries have no answer.
            self.tally.attempted += len(self.session)
            self.tally.fail(SESSION, "timeout" if outcome.timed_out
                            else "exit %d" % outcome.code, len(self.session))
            return None
        with open(results_path) as fh:
            results = json.load(fh)
        ok = len(results) == len(self.session)
        for i, argv in enumerate(self.session):
            self.tally.attempted += 1
            code, out, seconds = results[i] if i < len(results) else (None, None, 0)
            count = queries.expected_count(argv)
            if code == 0 and out == self.golden.expected[tuple(argv)] \
                    and (count is None or out == count):
                self.latencies.append(seconds)
            else:
                self.tally.fail(argv[0], "wrong output" if code == 0 else "exit %r" % code)
                ok = False
        return outcome if ok else None

    def order(self) -> list:
        names = list(self.names)
        self.rng.shuffle(names)
        return names


def trimmed_mean(values: list) -> float:
    """The mean of ``values`` without their lowest and highest tenth.

    On a machine that switches between a fast and a slow state, samples
    fall into two clusters, and their median jumps from one to the other
    as the share of slow samples passes one half.  This mean moves with
    that share, and from ten samples up a lone stall does not move it.
    """
    values = sorted(values)
    cut = len(values) // 10
    return statistics.mean(values[cut:len(values) - cut])


def summary_line(values: list) -> str:
    values = sorted(values)
    return "trimmed mean %.6f  median %.6f  min %.6f  max %.6f  (%d samples)" % (
        trimmed_mean(values), statistics.median(values), values[0], values[-1],
        len(values))


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: the end-to-end metrics and the report lines."""
    runner = Runner(workload, seed)
    refs, setups = [], []

    def sample_machine():
        # Sampled before each command as well, so that these samples span
        # the same stretch of machine load as the commands.  The reference
        # is sampled twice, because its noise enters every scaled time.
        refs.append(runner.reference())
        setups.append(runner.setup())
        refs.append(runner.reference())

    for _ in range(SETUP_SAMPLES):
        sample_machine()
    samples = {name: [] for name in runner.names}
    attempted = dict.fromkeys(runner.names, 0)
    t0 = time.perf_counter()

    def due() -> bool:
        return runner.remaining() > 0 and (
            time.perf_counter() - t0 < seconds or not min(attempted.values()))

    while due():
        for name in runner.order():
            if not due():
                break
            sample_machine()
            attempted[name] += 1
            outcome = runner.run(name)
            if outcome is not None:
                samples[name].append(outcome)
    tally = runner.tally
    lines = ["workload %s  seed %d  seconds %g" % (workload, seed, seconds)]
    good_refs = [s for s in refs if s is not None]
    good_setups = [s for s in setups if s is not None]
    missing = [n for n, v in samples.items() if not v]
    missing += [n for n, v in (("reference", good_refs), ("setup", good_setups)) if not v]
    if missing:
        return None, lines + ["no successful sample of: %s" % ", ".join(missing)], tally
    walls = {name: [o.seconds for o in v] for name, v in samples.items()}
    for name in samples:
        label = "session" if name == SESSION else name
        lines.append("%-32s s   %s" % ("verdict_s." + label, summary_line(walls[name])))
    if runner.latencies:
        lat = sorted(runner.latencies)
        p50, p95 = (1000 * statistics.quantiles(lat, n=100)[i] for i in (49, 94))
        beyond = sum(1 for x in lat if 1000 * x > p95)
        lines.append("query_p50_ms                     ms  %.6f" % p50)
        lines.append("query_p95_ms                     ms  %.6f  (%d samples, %d beyond p95)"
                     % (p95, len(lat), beyond))
    lines.append("setup (raw)                      s   %s" % summary_line(good_setups))
    lines.append("reference                        s   %s" % summary_line(good_refs))
    scale = REFERENCE_S / trimmed_mean(good_refs)
    lines.append("scale (REFERENCE_S / reference)  1   %.6f" % scale)
    lines.append("failed_frac                      1   %.6f  (%d of %d failed)"
                 % (tally.failed_frac, tally.failed, tally.attempted))
    metrics = {
        "setup_s": trimmed_mean(good_setups) * scale,
        "wall_s": sum(trimmed_mean(v) for v in walls.values()) * scale,
        "peak_rss_mb": runner.rss_mb,
    }
    return metrics, lines, tally


def traced_pass(runner: Runner, names: list) -> tuple:
    """Wall seconds and summed trace summaries of one traced pass, or None."""
    trace_path = os.path.join(WORK, "trace.json")
    wall, total = 0.0, {}
    for name in names:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        outcome = runner.run(name, trace_path)
        if outcome is None:
            return None
        wall += outcome.seconds
        with open(trace_path) as fh:
            for key, value in json.load(fh).items():
                total[key] = total.get(key, 0) + value
    return wall, total


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Traced run: per-layer metrics, and whether their counts repeated."""
    runner = Runner(workload, seed)
    plain, traced, summaries = [], [], []
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds or len(summaries) < 2) \
            and runner.remaining() > 0:
        names = runner.order()
        outcomes = [runner.run(name) for name in names]
        if None in outcomes:
            break
        plain.append(sum(o.seconds for o in outcomes))
        result = traced_pass(runner, names)
        if result is None:
            break
        traced.append(result[0])
        summaries.append(result[1])
    lines = ["workload %s  seed %d  seconds %g  traced passes %d"
             % (workload, seed, seconds, len(summaries))]
    if len(summaries) < 2:
        return None, lines + ["fewer than two traced passes completed"], runner.tally, False
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
              for s in summaries]
    repeated = all(c == counts[0] for c in counts[1:])
    if not repeated:
        for key in counts[0]:
            values = [c[key] for c in counts]
            if len(set(values)) > 1:
                lines.append("count did not repeat: %s %s" % (key, values))
    metrics = {}
    for key in tracer.metric_names():
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(s[key] for s in summaries), "s")
        else:
            metrics[key] = (counts[0][key], "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    lines += ["%-45s %-5s %r" % (key, unit, value)
              for key, (value, unit) in metrics.items()]
    lines.append("untraced pass s  %s" % summary_line(plain))
    lines.append("traced pass s    %s" % summary_line(traced))
    result = {key: metrics[key]
              for key in tracer.result_names() + ["trace.overhead_s"]}
    return result, lines, runner.tally, repeated


def compile_sources() -> None:
    """The only build step: byte-compile the package and this harness."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   stdout=subprocess.DEVNULL, timeout=120, check=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treesym", "cli.py")):
        print("perfbench: run from the root of a treesym checkout "
              "(no src/treesym/cli.py under %s)" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        compile_sources()
        if args.trace:
            metrics, lines, tally, repeated = measure_traced(
                args.workload, args.seed, args.seconds)
        else:
            metrics, lines, tally = measure(args.workload, args.seed, args.seconds)
            if metrics is not None:
                metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
            repeated = True
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for reason, count in sorted(tally.reasons.items()):
        lines.append("FAILED %d x %s" % (count, reason))
    print("\n".join(lines))
    if metrics is None:
        return 1
    print(json.dumps({
        "correct": tally.failed == 0 and repeated,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
