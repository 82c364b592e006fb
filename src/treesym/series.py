"""Exact truncated enumerating series for the three families.

The four series are the generating functions counting permutations (``S``),
bi-leveled trees (``M``, with positive part ``M+``), and binary trees
(``Y``).  A truncated series is the tuple of its integer coefficients.  The
module gives the four series, the one exact division the sign report needs
(by a series with constant term 1), and the sign report classifying which
quotients among the four series are coefficientwise nonnegative.  The
division yields its coefficients one at a time, and the report reads each
quotient only as far as its verdict needs: a mixed-sign quotient through its
first negative coefficient, a nonnegative one to the end.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from operator import mul

__all__ = [
    "series", "quotient", "quotient_terms", "catalan", "a_number",
    "quotient_sign_report", "NONNEGATIVE_QUOTIENTS", "QUOTIENTS",
    "SERIES_NAMES",
]

NONNEGATIVE_QUOTIENTS = (("S", "M"), ("S", "Y"), ("M+", "Y"), ("M", "Y"))
"""The ordered quotients proved to have nonnegative coefficients."""

TRIVIAL_QUOTIENTS = (("M+", "M"),)
"""Quotients carrying no independent information: M = 1 + M+, so
M+/M = 1 - 1/M is determined by M alone (and is computationally
nonnegative to high order)."""


_CATALANS = [1]  # catalan(0), catalan(1), ..., as far as asked so far


def catalan(n: int) -> int:
    """The ``n``-th Catalan number, by ``C(k + 1) = C(k) (4k + 2) / (k + 2)``
    run forward from the values below ``n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _CATALANS
    while len(c) <= n:
        k = len(c) - 1
        c.append(c[k] * (4 * k + 2) // (k + 2))
    return c[n]


_A_NUMBERS = [1]  # a_number(0), a_number(1), ..., as far as asked so far


def a_number(n: int) -> int:
    """Number of bi-leveled trees with ``n`` nodes, by the recurrence
    splitting at the leftmost node's hanging piece, run forward from the
    values below ``n``.  The sum of ``a(i) a(k - i)`` over ``0 < i < k``
    is symmetric: twice its terms with ``i < k / 2``, plus the middle
    square when ``k`` is even."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = _A_NUMBERS
    while len(a) <= n:
        k = len(a)
        h = (k - 1) // 2
        pairs = sum(map(mul, a[1:h + 1], a[k - 1:k - h - 1:-1]))
        middle = a[k // 2] ** 2 if k % 2 == 0 else 0
        a.append(catalan(k - 1) + 2 * pairs + middle)
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


def quotient_terms(num: tuple, den: tuple):
    """The coefficients of ``num / den`` to the shorter order, one at a
    time, for a ``den`` with constant term 1: each is an integer, read off
    ``num = quotient * den``.  The constant term is checked at the call."""
    if den[0] != 1:
        raise ValueError("the denominator's constant term must be 1")

    def terms():
        out = []
        for n in range(min(len(num), len(den))):
            out.append(num[n] - sum(map(mul, out, den[n:0:-1])))
            yield out[-1]
    return terms()


def quotient(num: tuple, den: tuple) -> tuple:
    """``num / den`` to the shorter order (see :func:`quotient_terms`)."""
    return tuple(quotient_terms(num, den))


QUOTIENTS = tuple((top, bottom)
                  for top, bottom in permutations(SERIES_NAMES, 2)
                  if SERIES[bottom](0) == 1)
"""The ordered pairs the sign report divides.  M+ has no constant term, so
its reciprocal quotients are not power series and it is never a
denominator."""


def quotient_sign_report(order: int) -> dict:
    """Signs of the quotients in :data:`QUOTIENTS` through ``order``.

    Maps each pair ``(numerator, denominator)`` to a dict: whether its
    coefficients are all nonnegative through ``order``, the first negative
    index if any, whether the pair is trivial, and under ``"coeffs"`` the
    coefficients the report read.  Those are all of them for a nonnegative
    quotient, and only those through the first negative one for a
    mixed-sign quotient: no later coefficient changes its verdict.
    """
    cache = {name: series(name, order) for name in SERIES_NAMES}
    report = {}
    for top, bottom in QUOTIENTS:
        read = []
        for c in quotient_terms(cache[top], cache[bottom]):
            read.append(c)
            if c < 0:
                break
        first_negative = len(read) - 1 if read[-1] < 0 else None
        report[(top, bottom)] = {
            "coeffs": tuple(read),
            "nonnegative": first_negative is None,
            "first_negative": first_negative,
            "trivial": (top, bottom) in TRIVIAL_QUOTIENTS,
        }
    return report
