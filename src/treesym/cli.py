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

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic; progress for long verifications goes to standard error.
The exhaustive size cap defaults to 8 and may be overridden with the
``TREESYM_MAX_N`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hopf_algebra as ha
from . import hopf_modules as hm
from . import posets as po
from . import projections as pj
from . import series as se
from . import trees_core as tc

__all__ = ["main", "run"]

DEFAULT_MAX_N = 8


def _check_size(n: int, parser: argparse.ArgumentParser) -> None:
    raw = os.environ.get("TREESYM_MAX_N")
    try:
        cap = DEFAULT_MAX_N if raw is None else int(raw)
    except ValueError:
        parser.error("TREESYM_MAX_N must be an integer, not %r" % raw)
    if n < 0 or n > cap:
        parser.error(
            "size %d outside supported range 0..%d "
            "(override with TREESYM_MAX_N)" % (n, cap))


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args, parser) -> int:
    _check_size(args.n, parser)
    elements = tc.enumerate_family(args.family, args.n)
    if args.count:
        payload = len(elements)
        print(json.dumps(payload) if args.json else payload)
        return 0
    encoded = [tc.FAMILIES[args.family].format(x) for x in elements]
    if args.json:
        print(json.dumps(encoded))
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
    print(json.dumps(result) if args.json else result)
    return 0


def _cmd_mobius(args, parser) -> int:
    x, y = (_parse(args.family, text, parser) for text in (args.x, args.y))
    degree = tc.FAMILIES[args.family].degree
    if degree(x) != degree(y):
        parser.error("both elements must have the same degree")
    value = po.mobius(args.family, x, y)
    print(json.dumps(value) if args.json else value)
    return 0


def _print_comb(comb, as_json: bool) -> None:
    if isinstance(comb, ha.LinComb):
        text, items = ha.format_lincomb(comb), [
            (key.format(), c) for key, c in ha._sorted_items(comb.terms)]
    else:
        text, items = ha.format_tensor(comb), [
            (" (x) ".join(k.format() for k in keys), c)
            for keys, c in ha._sorted_items(comb.terms)]
    if as_json:
        print(json.dumps(items))
    else:
        print(text)


def _basis_vector(family, flavor, element):
    return ha.F(family, element) if flavor == "F" else ha.Mb(family, element)


def _cmd_op(args, parser) -> int:
    family, flavor = args.family, args.basis
    elements = [_parse(family, text, parser) for text in args.elements]

    if args.operation == "mul":
        if len(elements) != 2:
            parser.error("mul needs two elements")
        a, b = (_basis_vector(family, flavor, x) for x in elements)
        if flavor == "F":
            result = ha.mul_F(a, b)
        else:
            result = ha.to_M(ha.mul_F(ha.to_F(a), ha.to_F(b)))
    elif args.operation == "comul":
        if len(elements) != 1:
            parser.error("comul needs one element")
        if family == "M":
            parser.error("the bi-leveled family has no coproduct")
        if flavor == "F":
            result = ha.comul_F(_basis_vector(family, "F", elements[0]))
        else:
            result = ha.comul_M_closed(family, elements[0])
    elif args.operation == "rho":
        if len(elements) != 1:
            parser.error("rho needs one element")
        if family != "M":
            parser.error("the coaction lives on the bi-leveled family")
        if flavor == "F":
            result = ha.coaction_rho(_basis_vector("M", "F", elements[0]))
        else:
            result = ha.rho_M_closed(elements[0])
    else:  # pragma: no cover - argparse restricts choices
        parser.error("unknown operation")
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
        _progress("%s: degree %d" % (args.suite, k))
        report = check(k)
        if not report["ok"]:
            payload = report["violations"][0]
            print(json.dumps({"ok": False, "counterexample": payload})
                  if args.json else "FAIL: %s" % (payload,))
            return 1
    summary = "%s through degree %d" % (claim, args.n)
    print(json.dumps({"ok": True, "summary": summary})
          if args.json else "OK: %s" % summary)
    return 0


def _cmd_series(args, parser) -> int:
    if args.order < 0:
        parser.error("order must be nonnegative")
    if args.quotients:
        report = se.quotient_sign_report(args.order)
        rows = [
            {
                "quotient": "%s/%s" % pair,
                "nonnegative": info["nonnegative"],
                "first_negative": info["first_negative"],
                "trivial": info["trivial"],
                "coeffs": [str(c) for c in info["coeffs"]],
            }
            for pair, info in sorted(report.items())
        ]
        if args.json:
            print(json.dumps(rows))
        else:
            for row in rows:
                print("%-6s %-12s first_negative=%s" % (
                    row["quotient"],
                    "nonnegative" if row["nonnegative"] else "mixed-sign",
                    row["first_negative"]))
        return 0
    if not args.which:
        parser.error("provide --which or --quotients")
    coeffs = se.series(args.which, args.order).coeffs
    if args.json:
        print(json.dumps(list(coeffs)))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_hasse(args, parser) -> int:
    _check_size(args.n, parser)
    print(po.hasse_dot(args.family, args.n))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("operation", choices=("mul", "comul", "rho"))
    p.add_argument("--family", choices=("S", "M", "Y"), required=True)
    p.add_argument("--basis", choices=("F", "M"), default="F")
    p.add_argument("elements", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_op)

    p = sub.add_parser("verify", help="exhaustive verification suites")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n", "--max-degree", dest="n", type=int, required=True)
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
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
