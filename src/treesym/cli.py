"""Command-line interface.

Subcommands: ``enumerate`` (list or count a family), ``map`` (apply one of
the projection maps or sections to a single element), ``mobius`` (one exact
Mobius value), ``op`` (products, coproducts, coactions in either basis),
``verify`` (exhaustive checking suites; exit status 1 on the first
counterexample), ``series`` (enumerating series and the quotient sign
report), and ``hasse`` (DOT export of a cover relation).

Each verify suite is one row of :data:`SUITES`: a report function for one
degree (``posets.*_verify`` or ``hopf_modules.*_verify``, returning
``{"n", "ok", "violations"}``), the first degree it runs at, and the claim
its OK line states; ``verify --n N`` runs it at every degree up to ``N``.

Exit codes: 0 success, 1 verification failure, 2 usage error,
:data:`EXIT_BROKEN_PIPE` when standard output is closed early, and
:data:`EXIT_IO_ERROR` when any other write to standard output fails.
Output is deterministic; progress for long verifications goes to standard
error, which carries diagnostics only: a write that fails there is
dropped, and the verdict and exit code stand.
The exhaustive size cap defaults to 8 and may be overridden with the
``TREESYM_MAX_N`` environment variable, up to :data:`MAX_N_CEILING`; it
bounds the degree of every input and of a product.  ``series --order`` is
at most :data:`MAX_ORDER`.

:func:`main`, the console script, flushes standard output and standard
error and then ends the process by ``os._exit``, skipping the
interpreter's teardown.  Library callers, who keep their process, use
:func:`run`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import lru_cache

from . import hopf_algebra as ha
from . import hopf_modules as hm
from . import posets as po
from . import projections as pj
from . import series as se
from . import trees_core as tc

__all__ = ["main", "run"]

DEFAULT_MAX_N = 8
# The tree helpers recurse once per level, through an lru_cache wrapper
# that counts as a second frame; trees of this depth stay well inside
# Python's default recursion limit.
MAX_N_CEILING = 400
MAX_ORDER = 500
# 128 + SIGPIPE: neither success nor the verification failure code
EXIT_BROKEN_PIPE = 141
# EX_IOERR of sysexits.h: standard output could not be written
EXIT_IO_ERROR = 74


def _json(value) -> str:
    """``value`` as JSON text; ``json`` is imported by ``--json`` only."""
    import json
    return json.dumps(value)


def _note(text: str) -> None:
    """Write one line to standard error.  It carries diagnostics only, so
    the line is dropped when standard error is closed (``2>&-``): Python
    then has no ``sys.stderr``, or one whose writes fail."""
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr)
        except OSError:
            pass


def _check_size(n: int, parser: argparse.ArgumentParser) -> None:
    raw = os.environ.get("TREESYM_MAX_N")
    try:
        cap = DEFAULT_MAX_N if raw is None else int(raw)
    except ValueError:
        parser.error("TREESYM_MAX_N must be an integer, not %r" % raw)
    if cap > MAX_N_CEILING:
        parser.error("TREESYM_MAX_N must be at most %d, not %d"
                     % (MAX_N_CEILING, cap))
    if n < 0 or n > cap:
        parser.error(
            "size %d outside supported range 0..%d "
            "(override with TREESYM_MAX_N)" % (n, cap))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args, parser) -> int:
    _check_size(args.n, parser)
    elements = tc.enumerate_family(args.family, args.n)
    if args.count:
        print(_json(len(elements)) if args.json else len(elements))
        return 0
    encoded = sorted(map(tc.FAMILIES[args.family].format, elements))
    if args.json:
        print(_json(encoded))
    else:
        for text in encoded:
            print(text)
    return 0


MAP_TABLE = {
    # name: (input family, output family, function)
    "tau": ("S", "Y", pj.tau),
    "beta": ("S", "M", pj.beta),
    "phi": ("M", "Y", pj.phi),
    "iota": ("M", "S", pj.iota),
    "min": ("Y", "S", pj.min_perm),
    "max": ("Y", "S", pj.max_perm),
}


def _parse(family: str, text: str, parser: argparse.ArgumentParser):
    """One element of ``family``: a usage error when it is malformed or its
    degree is above the size cap."""
    # The tree parser recurses once per '(', so its depth is capped first.
    _check_size(text.count("("), parser)
    fam = tc.FAMILIES[family]
    try:
        x = fam.parse(text)
    except tc.ParseError as exc:
        parser.error(str(exc))
    _check_size(fam.degree(x), parser)
    return x


def _cmd_map(args, parser) -> int:
    src, dst, fn = MAP_TABLE[args.name]
    result = tc.FAMILIES[dst].format(fn(_parse(src, args.element, parser)))
    print(_json(result) if args.json else result)
    return 0


def _cmd_mobius(args, parser) -> int:
    x, y = (_parse(args.family, text, parser) for text in (args.x, args.y))
    degree = tc.FAMILIES[args.family].degree
    if degree(x) != degree(y):
        parser.error("both elements must have the same degree")
    value = po.mobius(args.family, x, y)
    print(_json(value) if args.json else value)
    return 0


def _print_comb(comb, as_json: bool) -> None:
    if as_json:
        print(_json(ha._formatted_terms(comb)))
    else:
        print(ha.format_lincomb(comb))


OPS = {
    # name: (number of elements, the families it is defined on, the usage
    # error on any other, the operation on elements in the F and in the M
    # basis); each lambda looks its function up when it runs, as in SUITES
    "mul": (2, tc.FAMILIES, None,
            lambda f, x, y: ha.mul_F(ha.F(f, x), ha.F(f, y)),
            lambda f, x, y: ha.mul_M(ha.Mb(f, x), ha.Mb(f, y))),
    "comul": (1, ha.COPRODUCTS, "the bi-leveled family has no coproduct",
              lambda f, x: ha.comul_F(ha.F(f, x)),
              lambda f, x: ha.comul_M_closed(f, x)),
    "rho": (1, ("M",), "the coaction lives on the bi-leveled family",
            lambda f, x: ha.coaction_rho(ha.F(f, x)),
            lambda f, x: ha.rho_M_closed(x)),
}


def _cmd_op(args, parser) -> int:
    family = args.family
    arity, families, off_family, in_F, in_M = OPS[args.operation]
    elements = [_parse(family, text, parser) for text in args.elements]
    if len(elements) != arity:
        parser.error("%s needs %s" % (
            args.operation, ("one element", "two elements")[arity - 1]))
    if family not in families:
        parser.error(off_family)
    _check_size(sum(map(tc.FAMILIES[family].degree, elements)), parser)
    result = (in_F if args.basis == "F" else in_M)(family, *elements)
    _print_comb(result, args.json)
    return 0


# ---------------------------------------------------------------------------
# verification suites


SUITES = {
    # name: (report for one degree, first degree, claim of the OK line);
    # each lambda looks its report up when it runs, so that a wrapper put
    # on the module attribute after import is called
    "mobius-fibers": (lambda k: po.fiberwise_mobius_verify(k), 0,
                      "Mobius values agree across fibers"),
    "interval-retract": (lambda k: po.interval_retract_verify(k), 0,
                         "interval retract verified"),
    "hopf-module-plus": (lambda k: hm.plus_module_verify(k), 1,
                         "restricted Hopf-module law"),
    "hopf-module-bbslash": (lambda k: hm.bbslash_verify(k), 0,
                            "transported structure consistent"),
    "coinvariants": (lambda k: hm.coinvariants_verify(k), 1,
                     "coinvariant dimensions match"),
    "kappa": (lambda k: hm.kappa_verify(k), 0, "bijection verified"),
}


def _cmd_verify(args, parser) -> int:
    _check_size(args.n, parser)
    check, first, claim = SUITES[args.suite]
    for k in range(first, args.n + 1):
        _note("%s: degree %d" % (args.suite, k))
        report = check(k)
        if not report["ok"]:
            payload = report["violations"][0]
            print(_json({"ok": False, "counterexample": payload})
                  if args.json else "FAIL: %s" % (payload,))
            return 1
    summary = "%s through degree %d" % (claim, args.n)
    print(_json({"ok": True, "summary": summary})
          if args.json else "OK: %s" % summary)
    return 0


def _cmd_series(args, parser) -> int:
    if not 0 <= args.order <= MAX_ORDER:
        parser.error("order %d outside supported range 0..%d"
                     % (args.order, MAX_ORDER))
    if args.quotients:
        report = sorted(se.quotient_sign_report(args.order).items())
        if args.json:
            print(_json([
                {
                    "quotient": "%s/%s" % pair,
                    "nonnegative": info["nonnegative"],
                    "first_negative": info["first_negative"],
                    "trivial": info["trivial"],
                    "coeffs": [str(c) for c in info["coeffs"]],
                }
                for pair, info in report
            ]))
        else:
            for pair, info in report:
                print("%-6s %-12s first_negative=%s" % (
                    "%s/%s" % pair,
                    "nonnegative" if info["nonnegative"] else "mixed-sign",
                    info["first_negative"]))
        return 0
    if not args.which:
        parser.error("provide --which or --quotients")
    coeffs = se.series(args.which, args.order).coeffs
    if args.json:
        print(_json(list(coeffs)))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_hasse(args, parser) -> int:
    _check_size(args.n, parser)
    print(po.hasse_dot(args.family, args.n))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first :func:`run` and
    reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="treesym",
        description="Exact combinatorics of permutations, bi-leveled trees, "
                    "and binary trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list or count one graded piece")
    p.add_argument("--family", choices=("S", "M", "Y"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("map", help="apply a projection map or section")
    p.add_argument("name", choices=sorted(MAP_TABLE))
    p.add_argument("element")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("mobius", help="one exact Mobius value")
    p.add_argument("--family", choices=("S", "M", "Y"), required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_mobius)

    p = sub.add_parser("op", help="products, coproducts, coactions")
    p.add_argument("operation", choices=tuple(OPS))
    p.add_argument("--family", choices=("S", "M", "Y"), required=True)
    p.add_argument("--basis", choices=("F", "M"), default="F")
    p.add_argument("elements", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_op)

    p = sub.add_parser("verify", help="exhaustive verification suites")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("series", help="enumerating series")
    p.add_argument("--which", choices=se.SERIES_NAMES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--quotients", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("hasse", help="DOT export of a cover relation")
    p.add_argument("--family", choices=("S", "M", "Y"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_hasse)

    return parser


def run(argv=None) -> int:
    """Run one command, ``argv`` or else ``sys.argv[1:]``, and return its
    exit code; the entry point for callers that keep their process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args, parser)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:  # includes tc.ParseError
        _note("%s: error: %s" % (parser.prog, exc))
        return 2


def main() -> None:
    """Run the command of ``sys.argv`` and end the process with its code.

    Standard output and standard error are flushed, then the process ends
    by ``os._exit``, which skips the interpreter's teardown: freeing every
    cached object one by one takes tens of milliseconds after a large
    verification.  A reader that closes standard output early ends it
    with :data:`EXIT_BROKEN_PIPE` and nothing on standard error; any other
    failed write there with one error line and :data:`EXIT_IO_ERROR`.
    Library callers use :func:`run`, which returns the code instead.
    """
    try:
        code = run()
        if sys.stdout is None:
            # closed before Python started (``>&-``), so print wrote nothing
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of standard output went away (``treesym ... | head``):
        # exit as a process killed by SIGPIPE shows in a shell.  What is
        # left in the buffer is never written, as no flush at exit runs.
        code = EXIT_BROKEN_PIPE
    except OSError as exc:
        _note("treesym: error: cannot write standard output: %s"
              % (exc.strerror or exc))
        code = EXIT_IO_ERROR
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)
