"""
Projection maps between the three families and their canonical sections.

* ``tau`` sends a permutation to the shape of its ordered tree;
* ``beta`` additionally remembers which positions hold values at least as
  large as the first letter, giving a bi-leveled tree;
* ``phi`` forgets the marked nodes; ``tau = phi . beta``;
* ``min_perm``/``max_perm`` pick the weak-order extremes of a ``tau`` fiber
  (the 231-avoiding and 132-avoiding representatives);
* ``iota`` is the order-preserving section of ``beta``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import trees_core as tc
from .trees_core import BiLeveledTree

__all__ = [
    "tau", "t_set", "beta", "phi", "min_perm", "max_perm",
    "BiLeveledFactorization", "bileveled_factorization", "iota",
    "beta_fibers", "beta_fiber", "tau_fiber", "avoids", "avoids_132",
    "avoids_pinned",
    "PINNED_PATTERNS", "beta_max", "is_fiber_top",
]


@lru_cache(maxsize=None)
def tau(w: tuple) -> tuple:
    """Shape of the ordered tree of ``w``: split at the largest value."""
    if not w:
        return tc.LEAF
    j = w.index(len(w))
    return (tau(tc.standardize(w[:j])), tau(tc.standardize(w[j + 1:])))


def t_set(w: tuple) -> frozenset:
    """Positions whose value is at least the first letter."""
    if not w:
        return frozenset()
    return frozenset(i + 1 for i, a in enumerate(w) if a >= w[0])


def beta(w: tuple) -> BiLeveledTree:
    return BiLeveledTree(tau(w), t_set(w))


def phi(b: BiLeveledTree) -> tuple:
    return b.tree


@lru_cache(maxsize=None)
def min_perm(t: tuple) -> tuple:
    """Weak-order minimum of the ``tau`` fiber (231-avoiding)."""
    return _extreme_perm(t, minimum=True)


@lru_cache(maxsize=None)
def max_perm(t: tuple) -> tuple:
    """Weak-order maximum of the ``tau`` fiber (132-avoiding)."""
    return _extreme_perm(t, minimum=False)


def _extreme_perm(t: tuple, *, minimum: bool) -> tuple:
    """Label ``t`` with 1..n: the root gets n; the left subtree gets the
    smallest (minimum) or largest (maximum) remaining values."""
    def fill(sub: tuple, values: tuple) -> tuple:
        if not sub:
            return ()
        left, right = sub
        nl = tc.nodes(left)
        rest = values[:-1]
        if minimum:
            left_vals, right_vals = rest[:nl], rest[nl:]
        else:
            split = len(rest) - nl
            right_vals, left_vals = rest[:split], rest[split:]
        return fill(left, left_vals) + (values[-1],) + fill(right, right_vals)

    n = tc.nodes(t)
    return fill(t, tuple(range(1, n + 1)))


def beta_max(t: tuple) -> BiLeveledTree:
    """The maximum bi-leveled tree over ``t``: marks its leftmost branch."""
    return BiLeveledTree(t, tc.leftmost_branch(t))


def is_fiber_top(b: BiLeveledTree) -> bool:
    """Is ``b`` the maximal bi-leveled tree over its underlying tree?  The
    empty tree is the only one over the empty tree."""
    return b == beta_max(b.tree)


class BiLeveledFactorization(NamedTuple):
    """``w = u1 v^1 u2 v^2 ... ur v^r`` with the ``u`` letters at the marked
    positions and the ``v^i`` the words between consecutive ``u`` letters."""

    u: tuple
    v: tuple

    def interleave(self) -> tuple:
        out = [self.u[0]]
        for ui, vi in zip(self.u[1:] + (None,), self.v):
            out.extend(vi)
            if ui is not None:
                out.append(ui)
        return tuple(out)


def bileveled_factorization(w: tuple) -> BiLeveledFactorization:
    if not w:
        raise ValueError("the empty permutation has no factorization")
    positions = sorted(t_set(w))
    u = tuple(w[p - 1] for p in positions)
    bounds = positions + [len(w) + 1]
    v = tuple(
        tuple(w[q - 1] for q in range(bounds[i] + 1, bounds[i + 1]))
        for i in range(len(positions))
    )
    return BiLeveledFactorization(u, v)


def _relabel(pattern: tuple, values: tuple) -> tuple:
    """Order-preserving relabeling of ``pattern`` into ``values``."""
    ordered = sorted(values)
    return tuple(ordered[a - 1] for a in pattern)


def iota(b: BiLeveledTree) -> tuple:
    """The distinguished fiber element of ``beta`` over ``b``.

    Its letters at marked positions follow the 231-avoiding word of the
    upper tree; the unmarked letters fill the gaps in decreasing blocks,
    each block 132-avoiding.
    """
    n = tc.nodes(b.tree)
    if n == 0:
        return ()
    t0, forest = tc.forest_form(b)
    r = len(b.ideal)
    u = (n + 1 - r,) + tuple(a + n + 1 - r for a in min_perm(t0))
    v = []
    next_top = n - r
    for piece in forest:
        size = tc.nodes(piece)
        block = tuple(range(next_top - size + 1, next_top + 1))
        next_top -= size
        v.append(_relabel(max_perm(piece), block))
    return BiLeveledFactorization(u, tuple(v)).interleave()


def tau_fiber(t: tuple) -> tuple:
    """All permutations with shape ``t``: words read off linear extensions."""
    n = tc.nodes(t)
    return tuple(sorted(w for w in tc.all_perms(n) if tau(w) == t))


@lru_cache(maxsize=None)
def beta_fibers(n: int) -> dict:
    """Every nonempty fiber of ``beta`` in degree ``n``, from one pass over
    the permutations: ``{b: canonically sorted permutations}``."""
    fibers: dict = {}
    for w in tc.all_perms(n):  # lexicographic, so each fiber comes sorted
        fibers.setdefault(beta(w), []).append(w)
    return {b: tuple(ws) for b, ws in fibers.items()}


def beta_fiber(b: BiLeveledTree) -> tuple:
    """All permutations mapping to ``b``, canonically sorted."""
    return beta_fibers(tc.nodes(b.tree)).get(b, ())


# ---------------------------------------------------------------------------
# pattern scans

PINNED_PATTERNS = ((2, 0, 3, 1), (0, 2, 3, 1), (3, 0, 2, 1))
"""Forbidden patterns characterizing :func:`iota`'s image within a fiber.

Each is a relative-order pattern on four letters whose first letter is
pinned to position 1 of the permutation (0 denotes the smallest letter)."""


def _value_order(pattern: tuple) -> list:
    """The positions of ``pattern``, smallest letter first: a word of
    distinct letters has the pattern's relative order exactly when it is
    increasing when read in this order."""
    return sorted(range(len(pattern)), key=pattern.__getitem__)


def avoids(w: tuple, pattern: tuple) -> bool:
    """Does ``w`` avoid the classical pattern (e.g. ``(1,3,2)``)?"""
    order = _value_order(pattern)
    for sub in combinations(w, len(pattern)):
        if [sub[i] for i in order] == sorted(sub):
            return False
    return True


def avoids_132(w: tuple) -> bool:
    """``avoids(w, (1, 3, 2))`` in one pass from the right: ``two`` is the
    largest letter seen so far with a larger letter to its left, and a
    letter below it completes a 132.  The stack holds the letters seen
    that have no larger letter to their left yet, decreasing upward."""
    two = 0
    stack = []
    for a in reversed(w):
        if a < two:
            return False
        while stack and stack[-1] < a:
            two = stack.pop()
        stack.append(a)
    return True


def avoids_pinned(w: tuple, pattern: tuple) -> bool:
    """Pinned variant: the pattern's first letter must be ``w``'s first."""
    if not w:
        return True
    order = _value_order(pattern)
    for rest in combinations(w[1:], len(pattern) - 1):
        sub = (w[0],) + rest
        if [sub[i] for i in order] == sorted(sub):
            return False
    return True
