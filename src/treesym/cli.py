"""Command-line interface.

Subcommands: ``enumerate`` (list or count a family), ``map`` (apply one of
the projection maps or sections to a single element), ``mobius`` (one exact
Mobius value), ``op`` (products, coproducts, coactions in either basis),
``verify`` (exhaustive checking suites; exit status 1 on the first
counterexample), ``series`` (enumerating series and the quotient sign
report), and ``hasse`` (DOT export of a cover relation).

Each verify suite is one row of :data:`SUITES`: a checker, which builds
the report function of one run (``posets.*_verify`` or
``hopf_modules.*_verify`` for one degree, returning ``{"n", "ok",
"violations"}``), the first degree it runs at, and the claim its OK line
states; ``verify --n N`` builds the report function once and runs it at
every degree up to ``N``.

Exit codes: 0 success, 1 verification failure, 2 usage error or a
command that runs out of memory,
:data:`EXIT_BROKEN_PIPE` when standard output is closed early, and
:data:`EXIT_IO_ERROR` when any other write to standard output fails.
Output is deterministic; progress for long verifications goes to standard
error, which carries diagnostics only: a write that fails there is
dropped, and the verdict and exit code stand.
The exhaustive size cap defaults to 8 and may be overridden with the
``TREESYM_MAX_N`` environment variable, from 0 to :data:`MAX_N_CEILING`; it
bounds the degree of every input and of a product.  ``series --order`` is
at most :data:`MAX_ORDER`.

The grammar is one table, :data:`GRAMMAR`: each command's help, handler,
positionals and options.  :func:`run` parses a command in the table's
plain form by reading the table directly; only help (``-h``), a usage
error, or a form the table leaves out (an abbreviated flag, ``--n=3``,
``--``, a value starting with ``-``) builds the argparse parser, which is
made from the same table.  ``argparse`` is imported only then, and every
usage error is printed by it.

:func:`main`, the console script, flushes standard output and standard
error and then ends the process by ``os._exit``, skipping the
interpreter's teardown.  Library callers, who keep their process, use
:func:`run`, which returns the exit code.
"""

from __future__ import annotations

import errno
import os
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

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


def _usage_error(message: str) -> None:
    """End the command as a usage error: the usage line and ``message``
    on standard error, and exit code 2, by the argparse parser."""
    _build_parser().error(message)


def _check_size(n: int) -> None:
    raw = os.environ.get("TREESYM_MAX_N")
    cap = DEFAULT_MAX_N if raw is None else tc._decimal(raw)
    if cap is None:
        _usage_error("TREESYM_MAX_N must be an integer, not %r" % raw)
    if cap < 0:
        _usage_error("TREESYM_MAX_N must be at least 0, not %d" % cap)
    if cap > MAX_N_CEILING:
        _usage_error("TREESYM_MAX_N must be at most %d, not %d"
                     % (MAX_N_CEILING, cap))
    if n < 0 or n > cap:
        _usage_error(
            "size %d outside supported range 0..%d "
            "(override with TREESYM_MAX_N)" % (n, cap))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args) -> int:
    _check_size(args.n)
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


def _parse(family: str, text: str):
    """One element of ``family``: a usage error when it is malformed or its
    degree is above the size cap."""
    # The tree parser recurses once per '(', so its depth is capped first.
    _check_size(text.count("("))
    fam = tc.FAMILIES[family]
    try:
        x = fam.parse(text)
    except tc.ParseError as exc:
        _usage_error(str(exc))
    _check_size(fam.degree(x))
    return x


def _cmd_map(args) -> int:
    src, dst, fn = MAP_TABLE[args.name]
    result = tc.FAMILIES[dst].format(fn(_parse(src, args.element)))
    print(_json(result) if args.json else result)
    return 0


def _cmd_mobius(args) -> int:
    x, y = (_parse(args.family, text) for text in (args.x, args.y))
    degree = tc.FAMILIES[args.family].degree
    if degree(x) != degree(y):
        _usage_error("both elements must have the same degree")
    value = po.mobius(args.family, x, y)
    print(_json(value) if args.json else value)
    return 0


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


def _cmd_op(args) -> int:
    family = args.family
    arity, families, off_family, in_F, in_M = OPS[args.operation]
    elements = [_parse(family, text) for text in args.elements]
    if len(elements) != arity:
        _usage_error("%s needs %s" % (
            args.operation, ("one element", "two elements")[arity - 1]))
    if family not in families:
        _usage_error(off_family)
    _check_size(sum(map(tc.FAMILIES[family].degree, elements)))
    result = (in_F if args.basis == "F" else in_M)(family, *elements)
    print(_json(ha._formatted_terms(result)) if args.json
          else ha.format_lincomb(result))
    return 0


# ---------------------------------------------------------------------------
# verification suites


SUITES = {
    # name: (checker, first degree, claim of the OK line); the checker
    # builds the report function of one run, looking the report up as it
    # does, so that a wrapper put on the module attribute after import is
    # called; the Hopf-module reports share their images across the run.
    # perfbench/run.py and tests/cli_golden.json compare the OK lines byte
    # for byte, so a claim stays as it is: "coinvariant dimensions match",
    # though the suite compares the index sets member by member
    "mobius-fibers": (lambda: po.fiberwise_mobius_verify, 0,
                      "Mobius values agree across fibers"),
    "interval-retract": (lambda: po.interval_retract_verify, 0,
                         "interval retract verified"),
    "hopf-module-plus": (lambda: partial(
        hm.plus_module_verify, images=hm.LawImages()), 1,
        "restricted Hopf-module law"),
    "hopf-module-bbslash": (lambda: partial(
        hm.bbslash_verify, images=hm.LawImages()), 0,
        "transported structure consistent"),
    "coinvariants": (lambda: hm.coinvariants_verify, 1,
                     "coinvariant dimensions match"),
    "kappa": (lambda: hm.kappa_verify, 0, "bijection verified"),
}


def _cmd_verify(args) -> int:
    _check_size(args.n)
    checker, first, claim = SUITES[args.suite]
    check = checker()
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


def _cmd_series(args) -> int:
    if not 0 <= args.order <= MAX_ORDER:
        _usage_error("order %d outside supported range 0..%d"
                     % (args.order, MAX_ORDER))
    if (args.which is None) != args.quotients:
        _usage_error("provide --which or --quotients")
    if args.quotients:
        report = sorted(se.quotient_sign_report(args.order).items())
        if args.json:
            series = {name: se.series(name, args.order)
                      for name in se.SERIES_NAMES}

            def coeffs(pair, info):
                # the report read a mixed-sign quotient only through its
                # first negative coefficient; JSON prints all of them
                if info["nonnegative"]:
                    return info["coeffs"]
                return se.quotient(*(series[name] for name in pair))
            print(_json([
                {
                    "quotient": "%s/%s" % pair,
                    "nonnegative": info["nonnegative"],
                    "first_negative": info["first_negative"],
                    "trivial": info["trivial"],
                    "coeffs": [str(c) for c in coeffs(pair, info)],
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
    coeffs = se.series(args.which, args.order)
    if args.json:
        print(_json(list(coeffs)))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_hasse(args) -> int:
    _check_size(args.n)
    print(po.hasse_dot(args.family, args.n))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# A positional is (dest, choices or None, nargs): nargs is 1, or "+" for
# one contiguous run of tokens.  An option is (flag, dest, kind, required,
# default): kind is a tuple of choices, int, or bool for a flag that takes
# no value (argparse's store_true).  A command lists its arguments in the
# order its help and argparse's "required" message show them.
_FAMILY = ("--family", "family", ("S", "M", "Y"), True, None)
_DEGREE = ("--n", "n", int, True, None)
_JSON = ("--json", "json", bool, False, False)

GRAMMAR = {
    # name: (help, handler, arguments)
    "enumerate": ("list or count one graded piece", _cmd_enumerate, (
        _FAMILY, _DEGREE, ("--count", "count", bool, False, False), _JSON)),
    "map": ("apply a projection map or section", _cmd_map, (
        ("name", tuple(sorted(MAP_TABLE)), 1), ("element", None, 1), _JSON)),
    "mobius": ("one exact Mobius value", _cmd_mobius, (
        _FAMILY, ("x", None, 1), ("y", None, 1), _JSON)),
    "op": ("products, coproducts, coactions", _cmd_op, (
        ("operation", tuple(OPS), 1), _FAMILY,
        ("--basis", "basis", ("F", "M"), False, "F"),
        ("elements", None, "+"), _JSON)),
    "verify": ("exhaustive verification suites", _cmd_verify, (
        ("--suite", "suite", tuple(sorted(SUITES)), True, None), _DEGREE,
        _JSON)),
    "series": ("enumerating series", _cmd_series, (
        ("--which", "which", se.SERIES_NAMES, False, None),
        ("--order", "order", int, True, None),
        ("--quotients", "quotients", bool, False, False), _JSON)),
    "hasse": ("DOT export of a cover relation", _cmd_hasse, (
        _FAMILY, _DEGREE)),
}


def _parse_args(argv):
    """The arguments of a command in the plain form of :data:`GRAMMAR`,
    with the attributes argparse would set; ``None`` for any other form.

    The plain form: an exact command name, then each option at most once
    under its exact flag, a value not starting with ``-`` after each
    option that takes one, every required option, and the positionals in
    order, a ``"+"`` one as one contiguous run.  Any other token starting
    with ``-`` (``-h``, ``--``, ``--n=3``, an abbreviated flag, a negative
    number) and every malformed command are left to argparse.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, handler, arguments = GRAMMAR[argv[0]]
    values = {"command": argv[0], "handler": handler}
    options = {}
    positionals = []
    for argument in arguments:
        if argument[0].startswith("-"):
            options[argument[0]] = argument
            values[argument[1]] = argument[4]
        else:
            positionals.append(argument)
    runs = [[]]  # the positional tokens, one list per run between options
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            runs[-1].append(token)
            continue
        option = options.pop(token, None)
        if option is None:
            return None
        _, dest, kind, _, _ = option
        if kind is bool:
            values[dest] = True
        else:
            value = next(tokens, "-")  # a missing value is declined too
            if value.startswith("-"):
                return None
            if kind is int:
                value = tc._decimal(value)
                if value is None:
                    return None
            elif value not in kind:
                return None
            values[dest] = value
        runs.append([])
    if any(option[3] for option in options.values()):
        return None
    positionals = iter(positionals)
    for run in runs:
        # argparse fills as many positionals as a run holds, in order
        while run:
            argument = next(positionals, None)
            if argument is None:
                return None
            dest, choices, nargs = argument
            if nargs == "+":
                values[dest], run = run, []
            else:
                values[dest] = run.pop(0)
                if choices is not None and values[dest] not in choices:
                    return None
    if next(positionals, None) is not None:
        return None
    return SimpleNamespace(**values)


@lru_cache(maxsize=None)
def _build_parser():
    """The argparse parser of :data:`GRAMMAR`, built on the first command
    that needs help or a usage message and reused by every later one."""
    import argparse

    def integer(text: str) -> int:
        """The number ``text`` writes, by the rule of element text."""
        value = tc._decimal(text)
        if value is None:
            raise ValueError(text)
        return value

    parser = argparse.ArgumentParser(
        prog="treesym",
        description="Exact combinatorics of permutations, bi-leveled trees, "
                    "and binary trees.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, arguments) in GRAMMAR.items():
        p = sub.add_parser(name, help=text)
        for argument in arguments:
            if not argument[0].startswith("-"):
                dest, choices, nargs = argument
                p.add_argument(dest, choices=choices,
                               nargs=None if nargs == 1 else nargs)
            elif argument[2] is bool:
                p.add_argument(argument[0], dest=argument[1],
                               action="store_true")
            else:
                flag, dest, kind, required, default = argument
                p.add_argument(
                    flag, dest=dest, required=required, default=default,
                    type=integer if kind is int else None,
                    choices=None if kind is int else kind)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    """Run one command, ``argv`` or else ``sys.argv[1:]``, and return its
    exit code; the entry point for callers that keep their process."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv) or _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:  # includes tc.ParseError
        _note("treesym: error: %s" % exc)
        return 2
    except MemoryError:
        # a raised TREESYM_MAX_N lets a command ask for more memory than
        # the process may hold
        _note("treesym: error: out of memory")
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
