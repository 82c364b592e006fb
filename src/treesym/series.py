"""Exact truncated enumerating series for the three families.

The four series are the generating functions counting permutations (``S``),
bi-leveled trees (``M``, with positive part ``M+``), and binary trees
(``Y``).  A truncated series is the tuple of its integer coefficients.  The
module gives the four series, the one exact division the sign report needs
(by a series with constant term 1), and the sign report classifying which
quotients among the four series are coefficientwise nonnegative.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial
from operator import mul

__all__ = [
    "series", "quotient", "catalan", "a_number", "quotient_sign_report",
    "NONNEGATIVE_QUOTIENTS", "SERIES_NAMES",
]

NONNEGATIVE_QUOTIENTS = (("S", "M"), ("S", "Y"), ("M+", "Y"), ("M", "Y"))
"""The ordered quotients proved to have nonnegative coefficients."""

TRIVIAL_QUOTIENTS = (("M+", "M"),)
"""Quotients carrying no independent information: M = 1 + M+, so
M+/M = 1 - 1/M is determined by M alone (and is computationally
nonnegative to high order)."""


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


_A_NUMBERS = [1]  # a_number(0), a_number(1), ..., as far as asked so far


def a_number(n: int) -> int:
    """Number of bi-leveled trees with ``n`` nodes, by the recurrence
    splitting at the leftmost node's hanging piece, run forward from the
    values below ``n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = _A_NUMBERS
    while len(a) <= n:
        inner = a[1:]
        a.append(catalan(len(a) - 1) + sum(map(mul, inner, reversed(inner))))
    return a[n]


SERIES = {
    # name: the coefficient of q**n
    "S": factorial,
    "M": a_number,
    "M+": lambda n: a_number(n) if n else 0,
    "Y": catalan,
}

SERIES_NAMES = tuple(SERIES)


def series(which: str, order: int) -> tuple:
    """The coefficients of q**0 .. q**order of one of the four series."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if which not in SERIES:
        raise ValueError("unknown series %r" % (which,))
    return tuple(map(SERIES[which], range(order + 1)))


def quotient(num: tuple, den: tuple) -> tuple:
    """``num / den`` to the shorter order, for a ``den`` with constant term
    1: each coefficient is an integer, read off ``num = quotient * den``."""
    if den[0] != 1:
        raise ValueError("the denominator's constant term must be 1")
    out = []
    for n in range(min(len(num), len(den))):
        out.append(num[n] - sum(map(mul, out, den[n:0:-1])))
    return tuple(out)


def quotient_sign_report(order: int) -> dict:
    """Signs of all ordered quotients among the four series.

    Maps each pair ``(numerator, denominator)`` to a dict with the quotient
    coefficients, whether they are all nonnegative through ``order``, and
    the first negative index if any.
    """
    cache = {name: series(name, order) for name in SERIES_NAMES}
    report = {}
    for top, bottom in permutations(SERIES_NAMES, 2):
        if cache[bottom][0] == 0:
            # M+ has no constant term; its reciprocal quotients are not
            # power series, so they are skipped.
            continue
        q = quotient(cache[top], cache[bottom])
        first_negative = next((n for n, c in enumerate(q) if c < 0), None)
        report[(top, bottom)] = {
            "coeffs": q,
            "nonnegative": first_negative is None,
            "first_negative": first_negative,
            "expected_nonnegative": (top, bottom) in NONNEGATIVE_QUOTIENTS,
            "trivial": (top, bottom) in TRIVIAL_QUOTIENTS,
        }
    return report
