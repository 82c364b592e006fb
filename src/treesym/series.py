"""Exact truncated enumerating series for the three families.

The four series are the generating functions counting permutations (``S``),
bi-leveled trees (``M``, with positive part ``M+``), and binary trees
(``Y``).  The module provides exact truncated arithmetic (product, quotient,
composition), the closed formula for the quotient coefficients ``B_n``
counting indecomposable bi-leveled trees, and the sign report classifying
which quotients among the four series are coefficientwise nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

__all__ = [
    "TruncatedSeries", "series", "catalan", "a_number", "b_sequence",
    "quotient_sign_report", "NONNEGATIVE_QUOTIENTS", "SERIES_NAMES",
]

NONNEGATIVE_QUOTIENTS = (("S", "M"), ("S", "Y"), ("M+", "Y"), ("M", "Y"))
"""The ordered quotients proved to have nonnegative coefficients."""

TRIVIAL_QUOTIENTS = (("M+", "M"),)
"""Quotients carrying no independent information: M = 1 + M+, so
M+/M = 1 - 1/M is determined by M alone (and is computationally
nonnegative to high order)."""


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series modulo ``q^(N+1)``, with exact coefficients."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    @staticmethod
    def from_function(fn, order: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(fn(n) for n in range(order + 1)))

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries((1,) + (0,) * order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(tuple(
            self.coeffs[n] + other.coeffs[n] for n in range(order + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(tuple(
            self.coeffs[n] - other.coeffs[n] for n in range(order + 1)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with no constant term")
        order = min(self.order, other.order)
        c0 = other.coeffs[0]
        out = []
        for n in range(order + 1):
            acc = self.coeffs[n]
            for k in range(n):
                acc -= out[k] * other.coeffs[n - k]
            # one exact division: an int when it is exact
            out.append(acc // c0 if acc % c0 == 0 else Fraction(acc) / c0)
        return TruncatedSeries(tuple(out))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (no constant term) into this series."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs a zero constant term")
        order = min(self.order, inner.order)
        result = TruncatedSeries((0,) * (order + 1))
        power = TruncatedSeries.one(order)
        trimmed = TruncatedSeries(inner.coeffs[:order + 1])
        for n in range(order + 1):
            coef = TruncatedSeries(
                (self.coeffs[n],) + (0,) * order)
            result = result + coef * power
            power = power * trimmed
        return result

    def shift(self) -> "TruncatedSeries":
        """Multiply by ``q``."""
        return TruncatedSeries((0,) + self.coeffs[:-1])


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def a_number(n: int) -> int:
    """Number of bi-leveled trees with ``n`` nodes, by the recurrence
    splitting at the leftmost node's hanging piece."""
    if n == 0:
        return 1
    return catalan(n - 1) + sum(
        a_number(i) * a_number(n - i) for i in range(1, n))


SERIES = {
    # name: the coefficient of q**n
    "S": factorial,
    "M": a_number,
    "M+": lambda n: a_number(n) if n else 0,
    "Y": catalan,
}

SERIES_NAMES = tuple(SERIES)


def series(which: str, order: int) -> TruncatedSeries:
    """One of the four enumerating series, truncated at ``order``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if which not in SERIES:
        raise ValueError("unknown series %r" % (which,))
    return TruncatedSeries.from_function(SERIES[which], order)


def b_sequence(order: int) -> tuple:
    """``B_1 .. B_order``: counts of indecomposable bi-leveled trees.

    Computed by the closed summation formula: an integer sum divided once
    by ``n - 1``, with an integrality assertion on every value.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    out = []
    for n in range(1, order + 1):
        if n == 1:
            out.append(catalan(0))
            continue
        total = sum(k * comb(2 * n - k - 3, n - k - 1) * catalan(k)
                    for k in range(n))
        value, remainder = divmod(total, n - 1)
        if remainder:
            raise ArithmeticError("non-integer value in the B sequence")
        out.append(value)
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
        if cache[bottom].coeffs[0] == 0:
            # M+ has no constant term; its reciprocal quotients are not
            # power series, so they are skipped.
            continue
        q = cache[top] / cache[bottom]
        first_negative = next(
            (n for n, c in enumerate(q.coeffs) if c < 0), None)
        report[(top, bottom)] = {
            "coeffs": q.coeffs,
            "nonnegative": first_negative is None,
            "first_negative": first_negative,
            "expected_nonnegative": (top, bottom) in NONNEGATIVE_QUOTIENTS,
            "trivial": (top, bottom) in TRIVIAL_QUOTIENTS,
        }
    return report
