"""
Projection maps between the three families and their canonical sections.

* ``tau`` sends a permutation to the shape of its ordered tree;
* ``beta`` additionally remembers which positions hold values at least as
  large as the first letter, giving a bi-leveled tree;
* ``phi`` forgets the marked nodes; ``tau = phi . beta``;
* ``min_perm``/``max_perm`` pick the weak-order extremes of a ``tau`` fiber
  (the 231-avoiding and 132-avoiding representatives);
* ``iota`` is the order-preserving section of ``beta``, built by one
  walk of the tree and its marks: an unmarked subtree gives its
  ``max_perm``; at a marked root the left word is raised by the number
  ``low`` of unmarked nodes on the right, the root takes the largest
  letter, and the right word's letters above ``low`` are raised by the
  length of the left word;
* ``beta_fibers`` groups a degree's permutations by ``beta``, built from
  the fibers of the degree below by inserting the letter 1, with no
  permutation mapped on its own.
"""

from __future__ import annotations

from functools import lru_cache

from . import trees_core as tc
from .trees_core import BiLeveledTree

__all__ = [
    "tau", "t_set", "beta", "phi", "min_perm", "max_perm", "iota",
    "beta_fibers", "beta_fiber", "avoids_132", "beta_max", "is_fiber_top",
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
    if not t:
        return ()
    low = min_perm(t[0])
    return (low + (tc.nodes(t),)
            + tuple(a + len(low) for a in min_perm(t[1])))


@lru_cache(maxsize=None)
def max_perm(t: tuple) -> tuple:
    """Weak-order maximum of the ``tau`` fiber (132-avoiding)."""
    if not t:
        return ()
    high = max_perm(t[1])
    return (tuple(a + len(high) for a in max_perm(t[0]))
            + (tc.nodes(t),) + high)


def beta_max(t: tuple) -> BiLeveledTree:
    """The maximum bi-leveled tree over ``t``: marks its leftmost branch."""
    return BiLeveledTree(t, tc.leftmost_branch(t))


def is_fiber_top(b: BiLeveledTree) -> bool:
    """Is ``b`` the maximal bi-leveled tree over its underlying tree?  The
    empty tree is the only one over the empty tree."""
    return b == beta_max(b.tree)


def iota(b: BiLeveledTree) -> tuple:
    """The distinguished fiber element of ``beta`` over ``b``, by one walk
    of the tree and its marks.  The empty tree gives ``()``; an unmarked
    root has no marked node under it, and gives :func:`max_perm`.  At a
    marked root, with ``wl`` and ``wr`` the words of the two sides and
    ``low`` the number of unmarked nodes on the right, every letter of
    ``wl`` is raised by ``low``, the root takes ``len(wl) + len(wr) + 1``,
    and each letter of ``wr`` above ``low`` is raised by ``len(wl)``: the
    marked nodes take the largest letters, in 231-avoiding order."""
    return _section(b.tree, b.ideal, 0)[1]


def _section(t: tuple, ideal: frozenset, offset: int) -> tuple:
    """``(marked count, word)`` of :func:`iota`'s rule on the subtree
    ``t``, whose nodes are numbered from ``offset + 1``."""
    if not t:
        return 0, ()
    left, right = t
    root = offset + tc.nodes(left) + 1
    if root not in ideal:
        return 0, max_perm(t)
    marked_l, wl = _section(left, ideal, offset)
    marked_r, wr = _section(right, ideal, root)
    low, k = len(wr) - marked_r, len(wl)
    return (marked_l + marked_r + 1,
            tuple(a + low for a in wl) + (k + len(wr) + 1,)
            + tuple(a + k if a > low else a for a in wr))


@lru_cache(maxsize=None)
def beta_fibers(n: int) -> dict:
    """Every nonempty fiber of ``beta`` in degree ``n``:
    ``{b: its permutations in lexicographic order}``.

    Built from the fibers of degree ``n - 1`` by inserting the letter 1:
    each ``w`` is ``w'`` with its letters raised by one and 1 put at some
    position ``i``, and ``beta(w)`` depends on ``beta(w')`` and ``i``
    alone (:func:`_beta_inserting_one`), so no permutation is mapped on
    its own."""
    if n == 0:
        return {BiLeveledTree(tc.LEAF, frozenset()): ((),)}
    fibers: dict = {}
    for b, ws in beta_fibers(n - 1).items():
        raised = [tuple(map((1).__add__, w)) for w in ws]
        for i in range(n):
            fibers.setdefault(_beta_inserting_one(b, i), []).extend(
                w[:i] + (1,) + w[i:] for w in raised)
    return {b: tuple(sorted(ws)) for b, ws in fibers.items()}


def _beta_inserting_one(b: BiLeveledTree, i: int) -> BiLeveledTree:
    """``beta(w)`` for ``w`` the word ``w'`` with ``beta(w') = b``, raised
    by one, with the letter 1 inserted at position ``i`` (from 0).

    The letter 1 has no children in the tree of ``w``, and ``w'`` is
    ``w`` with it removed, so the tree of ``w`` is that of ``w'`` with a
    node grafted at leaf ``i``.  When 1 is the first letter every position
    is marked; otherwise the first letter is that of ``w'``, raised, and
    the marks after position ``i`` move up by one."""
    n = tc.nodes(b.tree) + 1
    if i == 0:
        marks = frozenset(range(1, n + 1))
    else:
        marks = frozenset(p + 1 if p > i else p for p in b.ideal)
    return BiLeveledTree(_graft_node(b.tree, i), marks)


def _graft_node(t: tuple, i: int) -> tuple:
    """``t`` with a node, both of whose children are leaves, at leaf ``i``
    (from 0, left to right): :func:`tc.graft_trees` of that forest, with
    no forest built and only the path to leaf ``i`` rebuilt."""
    if not t:
        return (tc.LEAF, tc.LEAF)
    left, right = t
    k = tc.nodes(left)
    if i <= k:
        return (_graft_node(left, i), right)
    return (left, _graft_node(right, i - k - 1))


def beta_fiber(b: BiLeveledTree) -> tuple:
    """All permutations mapping to ``b``, in lexicographic order."""
    return beta_fibers(tc.nodes(b.tree)).get(b, ())


def avoids_132(w: tuple) -> bool:
    """Does ``w`` avoid the pattern 132?  One pass from the right: ``two``
    is the largest letter seen so far with a larger letter to its left, and
    a letter below it completes a 132.  The stack holds the letters seen
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

