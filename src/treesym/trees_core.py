"""
Core combinatorial objects and their structural operations.

Three families of objects, all immutable:

* planar binary trees, encoded as nested pairs -- the empty tree is ``()``
  and a tree with a root node is ``(left, right)``;
* permutations in one-line notation, encoded as tuples of the integers
  ``1..n`` (a permutation doubles as an "ordered tree": the node in in-order
  position ``i`` carries the label ``w[i-1]``);
* bi-leveled trees: a tree together with an admissible upper set of its
  nodes (see :class:`BiLeveledTree`).

Nodes and the gaps between leaves are numbered ``1..n`` from left to right
(in-order); leaves are numbered ``0..n`` from left to right.

The module also implements splitting an element along a multiset of leaves,
grafting a forest onto the leaves of a base element, and the two-factor
decompositions of the backslash product, one at each cut between the
indecomposable factors of an element.  A tree is cut at each of its
leaves once: its cut table, the ``n + 1`` pairs of left and right part,
is kept per tree, and every splitting of a tree or a bi-leveled tree
reads its cuts from the tables.  :data:`FAMILIES` holds one
:class:`Family` record per tag (``"S"``, ``"Y"``, ``"M"``) with its text
encoding, degree, empty element, generator, splitting, grafting and
decompositions; code that handles all three families reads this table
instead of guessing the family from the shape of a value (the empty
permutation and the empty tree are both ``()``).  Each family has one
canonical order, the order its generator yields the elements of a degree
in; text order is a sort made where text is printed.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations
from typing import Any, Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "LEAF", "BiLeveledTree", "DecoratedForest", "ParseError", "Family",
    "FAMILIES", "nodes", "leaves", "backslash", "node_parents",
    "leftmost_branch",
    "parse_tree", "format_tree", "parse_perm", "format_perm",
    "parse_bileveled", "format_bileveled", "standardize", "all_trees",
    "all_perms", "all_bileveled", "is_admissible_ideal", "splittings",
    "perm_splittings", "tree_splittings", "bileveled_splittings",
    "restricted_splittings", "graft", "graft_trees", "graft_perms",
    "graft_bileveled", "forest_form", "tree_backslash_bileveled",
    "enumerate_family", "tree_backslash_decompositions",
    "perm_backslash_decompositions", "bileveled_backslash_decompositions",
]

# The empty tree.  A nonempty tree is a pair (left, right) of trees.
LEAF: tuple = ()


class ParseError(ValueError):
    """Raised on malformed text encodings; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class BiLeveledTree(NamedTuple):
    """A planar binary tree plus an admissible upper set of its nodes.

    ``ideal`` is up-closed in the node order (the root is the unique
    maximum), contains the leftmost node (node 1), and contains nothing
    strictly under node 1.  The empty object is ``BiLeveledTree((), frozenset())``.
    """

    tree: tuple
    ideal: frozenset


# A forest produced by splitting a bi-leveled tree: parts are (tree, marks)
# pairs with marks the local node indices inherited from the ideal.  Only
# the first part is guaranteed to be a valid BiLeveledTree.
DecoratedForest = tuple


# ---------------------------------------------------------------------------
# basic tree operations


@lru_cache(maxsize=None)
def nodes(t: tuple) -> int:
    """Number of internal nodes of a tree."""
    if not t:
        return 0
    return 1 + nodes(t[0]) + nodes(t[1])


def leaves(t: tuple) -> int:
    return nodes(t) + 1


def backslash(t1: tuple, t2: tuple) -> tuple:
    """Graft the root of ``t2`` onto the rightmost leaf of ``t1``."""
    if not t1:
        return t2
    return (t1[0], backslash(t1[1], t2))


def _perm_cuts(w: tuple) -> list:
    """The lengths ``k`` of the prefixes of ``w`` that hold its ``k``
    largest values, ``0`` and ``len(w)`` included: the cuts of
    ``w = u \\ v``.  A running minimum finds them in one pass."""
    n = len(w)
    cuts = [0]
    low = n + 1
    for k, a in enumerate(w, 1):
        if a < low:
            low = a
        if low == n - k + 1:
            cuts.append(k)
    return cuts


@lru_cache(maxsize=None)
def node_parents(t: tuple) -> tuple:
    """The parent of each node, indexed by node (index 0 unused); the root
    is its own parent."""
    parent = [0] * (nodes(t) + 1)

    def walk(sub: tuple, offset: int, up: int) -> None:
        left, right = sub
        root = offset + nodes(left) + 1
        parent[root] = up or root
        if left:
            walk(left, offset, root)
        if right:
            walk(right, root, root)

    if t:
        walk(t, 0, 0)
    return tuple(parent)


@lru_cache(maxsize=None)
def leftmost_branch(t: tuple) -> frozenset:
    """Nodes on the path from the leftmost leaf to the root (in-order)."""
    path = []
    sub = t
    while sub:
        path.append(nodes(sub[0]) + 1)
        sub = sub[0]
    return frozenset(path)


# ---------------------------------------------------------------------------
# text encodings


def format_tree(t: tuple) -> str:
    if not t:
        return "."
    return "(" + format_tree(t[0]) + format_tree(t[1]) + ")"


def parse_tree(text: str) -> tuple:
    t, end = _parse_tree_at(text, 0)
    if end != len(text):
        raise ParseError("trailing characters after tree", end)
    return t


def _parse_tree_at(text: str, i: int):
    if i >= len(text):
        raise ParseError("unexpected end of input", i)
    if text[i] == ".":
        return LEAF, i + 1
    if text[i] == "(":
        left, j = _parse_tree_at(text, i + 1)
        right, k = _parse_tree_at(text, j)
        if k >= len(text) or text[k] != ")":
            raise ParseError("expected ')'", k)
        return (left, right), k + 1
    raise ParseError(f"unexpected character {text[i]!r}", i)


def format_perm(w: tuple) -> str:
    if len(w) <= 9:
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def parse_perm(text: str) -> tuple:
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        try:
            w = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ParseError(f"bad permutation {text!r}", 0) from exc
    else:
        if not text.isdigit():
            raise ParseError(f"bad permutation {text!r}", 0)
        w = tuple(int(ch) for ch in text)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ParseError(f"not a permutation of 1..{len(w)}: {text!r}", 0)
    return w


def _format_marks(ideal: frozenset) -> str:
    return "{" + ",".join(map(str, sorted(ideal))) + "}"


def format_bileveled(b: BiLeveledTree) -> str:
    return f"{format_tree(b.tree)};{_format_marks(b.ideal)}"


def parse_bileveled(text: str) -> BiLeveledTree:
    if ";" not in text:
        raise ParseError("expected 'TREE;{i,...}'", 0)
    tree_part, _, ideal_part = text.partition(";")
    t = parse_tree(tree_part)
    ideal_part = ideal_part.strip()
    if not (ideal_part.startswith("{") and ideal_part.endswith("}")):
        raise ParseError("expected '{i,...}' after ';'", len(tree_part) + 1)
    body = ideal_part[1:-1].strip()
    try:
        ideal = frozenset(int(s) for s in body.split(",") if body)
    except ValueError:
        raise ParseError(f"bad node number in {text!r}",
                         len(tree_part) + 1) from None
    b = BiLeveledTree(t, ideal)
    if not is_admissible_ideal(t, ideal):
        raise ParseError(f"inadmissible node set in {text!r}", 0)
    return b


# ---------------------------------------------------------------------------
# exhaustive generation


def standardize(word: Sequence[int]) -> tuple:
    """The permutation with the same relative order as ``word``."""
    ranks = {a: i + 1 for i, a in enumerate(sorted(word))}
    return tuple(ranks[a] for a in word)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple:
    """Every tree with ``n`` nodes: the trees ``(L, R)`` by the size of
    ``L``, then by ``L`` and then by ``R``, each in this order."""
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for left in all_trees(k):
            for right in all_trees(n - 1 - k):
                out.append((left, right))
    return tuple(out)


def all_perms(n: int) -> tuple:
    """Every permutation of ``1..n``, in decreasing lexicographic order, in
    which the weak-order covers of a permutation come before it."""
    return tuple(permutations(range(n, 0, -1)))


def is_admissible_ideal(t: tuple, ideal: frozenset) -> bool:
    """Check the bi-leveled constraints for ``(t, ideal)``: node 1 is
    marked, every mark is a node, the parent of every mark is marked, and
    the right child of node 1 (its only child) is not."""
    n = nodes(t)
    if n == 0:
        return not ideal
    if 1 not in ideal:
        return False
    parent = node_parents(t)
    for v in ideal:
        if not 1 <= v <= n:
            return False
        p = parent[v]
        if p not in ideal or (p == 1 and v != 1):
            return False
    return True


@lru_cache(maxsize=None)
def all_bileveled(n: int) -> tuple:
    """Every bi-leveled tree of degree ``n``: tree by tree in the order of
    :func:`all_trees`, and over one tree the leftmost branch plus each
    up-closed set of the nodes that may join it, by size and then
    lexicographically."""
    if n == 0:
        return (BiLeveledTree(LEAF, frozenset()),)
    out = []
    for t in all_trees(n):
        parent = node_parents(t)
        branch = leftmost_branch(t)
        # the nodes off the branch that hang from it above node 1, then
        # their descendants: parents come before their children
        order = [v for v in range(1, n + 1)
                 if v not in branch and parent[v] in branch and parent[v] != 1]
        for v in order:
            order.extend(u for u in range(1, n + 1) if parent[u] == v)
        extras = [()]
        for v in order:
            p = parent[v]
            extras += [e + (v,) for e in extras if p in branch or p in e]
        extras.sort(key=lambda e: (len(e), sorted(e)))
        out.extend(BiLeveledTree(t, branch.union(e)) for e in extras)
    return tuple(out)


def enumerate_family(family: str, n: int) -> tuple:
    """Every element of degree ``n``, in the canonical order of the family:
    the order its generator yields them in.  Text order is a sort where
    text is printed."""
    return FAMILIES[family].generate(n)


# ---------------------------------------------------------------------------
# splitting


def _split_tree_once(t: tuple, i: int):
    """Sever ``t`` along the path from leaf ``i`` to the root."""
    if not t:
        return LEAF, LEAF
    left, right = t
    nl = nodes(left)
    if i <= nl:
        l0, l1 = _split_tree_once(left, i)
        return l0, (l1, right)
    r0, r1 = _split_tree_once(right, i - nl - 1)
    return (left, r0), r1


@lru_cache(maxsize=None)
def _tree_cuts(t: tuple) -> tuple:
    """The cut table of ``t``: the pair ``_split_tree_once(t, i)`` at each
    leaf ``i = 0..n``, built once per tree.  The left part of cut ``i``
    holds nodes ``1..i`` and the right part nodes ``i + 1..n``."""
    return tuple(_split_tree_once(t, i) for i in range(nodes(t) + 1))


def split_tree_at(t: tuple, leaf_multiset: Sequence[int]) -> tuple:
    """Split ``t`` along a weakly increasing sequence of leaf indices,
    reading each cut of what is left from its table."""
    parts = []
    offset = 0
    rest = t
    for i in leaf_multiset:
        first, rest = _tree_cuts(rest)[i - offset]
        parts.append(first)
        offset = i
    parts.append(rest)
    return tuple(parts)


def tree_splittings(t: tuple, m: int) -> Iterator[tuple]:
    n = nodes(t)
    for choice in combinations_with_replacement(range(n + 1), m):
        yield split_tree_at(t, choice)


def perm_splittings(w: tuple, m: int) -> Iterator[tuple]:
    n = len(w)
    for choice in combinations_with_replacement(range(n + 1), m):
        parts = []
        prev = 0
        for i in choice:
            parts.append(w[prev:i])
            prev = i
        parts.append(w[prev:])
        yield tuple(parts)


def _split_bileveled(b: BiLeveledTree, m: int,
                     first: int) -> Iterator[DecoratedForest]:
    """Split ``b`` along each weakly increasing choice of ``m`` leaves
    numbered ``first`` or more, in lexicographic order of the choices."""
    n = nodes(b.tree)
    marks = sorted(b.ideal)
    for choice in combinations_with_replacement(range(first, n + 1), m):
        trees = split_tree_at(b.tree, choice)
        parts = []
        prev = lo = 0
        # the part that ends at ``bound`` holds the marks in (prev, bound]
        for tree_part, bound in zip(trees, choice + (n,)):
            hi = bisect_right(marks, bound, lo)
            parts.append((tree_part, frozenset(p - prev for p in marks[lo:hi])))
            prev, lo = bound, hi
        yield tuple(parts)


def bileveled_splittings(b: BiLeveledTree, m: int) -> Iterator[DecoratedForest]:
    """Split a bi-leveled tree; parts carry their inherited node marks."""
    return _split_bileveled(b, m, 0)


def splittings(family: str, x, m: int) -> list:
    """All splittings of ``x`` along a multiset of ``m`` leaves."""
    return list(FAMILIES[family].split(x, m))


def restricted_splittings(b: BiLeveledTree, m: int) -> Iterator[DecoratedForest]:
    """Splittings of ``b`` whose first part is nonempty: the first cut is
    at leaf 1 or later, since the first part holds the nodes left of it."""
    if not b.tree:
        raise ValueError("restricted splittings need a nonempty tree")
    yield from _split_bileveled(b, m, 1)


# ---------------------------------------------------------------------------
# grafting


def graft_trees(forest: Sequence[tuple], base: tuple) -> tuple:
    """Attach the root of ``forest[i]`` to the ``i``-th leaf of ``base``."""
    if len(forest) != leaves(base):
        raise ValueError("forest size must equal number of leaves of base")
    return _graft_onto(iter(forest), base)


def _graft_onto(parts: Iterator[tuple], base: tuple) -> tuple:
    """``base`` with each leaf replaced by the next tree of ``parts``."""
    if not base:
        return next(parts)
    left, right = base
    return (_graft_onto(parts, left), _graft_onto(parts, right))


def graft_perms(forest: Sequence[tuple], base: tuple) -> tuple:
    """Graft labeled parts onto a base whose labels sit above the forest's.

    Relative orders inside each part and inside the base are kept; the base's
    labels become the largest.
    """
    if len(forest) != len(base) + 1:
        raise ValueError("forest size must equal number of leaves of base")
    flat = [a for part in forest for a in part]
    ranks = {a: i + 1 for i, a in enumerate(sorted(flat))}
    n = len(flat)
    out = []
    for j, part in enumerate(forest):
        if j > 0:
            out.append(n + base[j - 1])
        out.extend(ranks[a] for a in part)
    return tuple(out)


def graft_bileveled(forest: DecoratedForest, base: BiLeveledTree) -> BiLeveledTree:
    """Graft a decorated forest onto a bi-leveled base.

    The resulting marked set is the base's when the first part is empty,
    and otherwise the forest's marks together with all base nodes.
    """
    part_trees = [p[0] for p in forest]
    tree = graft_trees(part_trees, base.tree)
    # in-order, base node j sits between parts j - 1 and j: part j's node
    # k lands at start[j] + k, and base node j at start[j]
    start = list(accumulate((nodes(p) + 1 for p in part_trees[:-1]),
                            initial=0))
    if not part_trees[0]:
        ideal = frozenset(start[v] for v in base.ideal)
    else:
        ideal = frozenset(start[1:]) | frozenset(
            start[j] + k for j, (_, marks) in enumerate(forest) for k in marks)
    return BiLeveledTree(tree, ideal)


def graft(family: str, forest, base):
    """Graft a forest onto a base element of ``family``."""
    return FAMILIES[family].graft(forest, base)


# ---------------------------------------------------------------------------
# two-factor backslash decompositions


def tree_backslash_decompositions(t: tuple) -> tuple:
    """All pairs ``(u, v)`` of trees with ``v`` grafted on the rightmost
    leaf of ``u`` giving back ``t`` (both trivial pairs included), by
    increasing size of ``u``."""
    if not t:
        return ((LEAF, LEAF),)
    left, right = t
    return ((LEAF, t),) + tuple(
        ((left, r2), v) for r2, v in tree_backslash_decompositions(right))


def perm_backslash_decompositions(w: tuple) -> tuple:
    """All pairs ``(u, v)`` of permutations with ``w`` = ``u`` over ``v``, by
    increasing length of ``u``: the first ``k`` letters of ``w`` are its
    ``k`` largest values, ``u`` is their standardization and ``v`` the
    untouched remainder."""
    n = len(w)
    return tuple((tuple(a - n + k for a in w[:k]), w[k:])
                 for k in _perm_cuts(w))


def bileveled_backslash_decompositions(b: BiLeveledTree) -> tuple:
    """All pairs ``(c, s)`` of a nonempty bi-leveled tree and a tree with
    ``s`` grafted on the rightmost leaf of ``c`` (marks kept) giving ``b``,
    by increasing size of ``c``: ``c`` must hold the last marked node."""
    if not b.tree:
        return ()
    top = max(b.ideal)
    return tuple((BiLeveledTree(u, b.ideal), v)
                 for u, v in tree_backslash_decompositions(b.tree)
                 if top <= nodes(u))


# ---------------------------------------------------------------------------
# the family table


class Family(NamedTuple):
    """How one family is written, measured, generated, split, grafted and
    cut in two by the backslash product.  ``generate`` gives the elements
    of one degree in the canonical order of the family."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    degree: Callable[[Any], int]
    empty: Any
    generate: Callable[[int], tuple]  # every element of one degree
    split: Callable[[Any, int], Iterator[tuple]]
    graft: Callable[[Sequence, Any], Any]
    decompose: Callable[[Any], tuple]  # two-factor backslash decompositions


FAMILIES = {
    "S": Family(parse_perm, format_perm, len, (), all_perms,
                perm_splittings, graft_perms, perm_backslash_decompositions),
    "Y": Family(parse_tree, format_tree, nodes, LEAF, all_trees,
                tree_splittings, graft_trees, tree_backslash_decompositions),
    "M": Family(parse_bileveled, format_bileveled, lambda b: nodes(b.tree),
                BiLeveledTree(LEAF, frozenset()), all_bileveled,
                bileveled_splittings, graft_bileveled,
                bileveled_backslash_decompositions),
}


# ---------------------------------------------------------------------------
# the two representations of a bi-leveled tree


def _prune_marked(t: tuple, ideal: frozenset, offset: int):
    """Induced subtree on the marked nodes plus the hanging pieces.

    ``t``'s root must be marked.  Returns the induced tree and the list of
    unmarked subtrees hanging at its leaves, left to right.
    """
    left, right = t
    root = offset + nodes(left) + 1
    if left and (offset + nodes(left[0]) + 1) in ideal:
        lt, lparts = _prune_marked(left, ideal, offset)
    else:
        lt, lparts = LEAF, [left]
    if right and (root + nodes(right[0]) + 1) in ideal:
        rt, rparts = _prune_marked(right, ideal, root)
    else:
        rt, rparts = LEAF, [right]
    return (lt, rt), lparts + rparts


def _drop_leftmost_node(t: tuple) -> tuple:
    left, right = t
    if not left:
        if right:
            raise ValueError("leftmost node has a child in the upper set")
        return LEAF
    return (_drop_leftmost_node(left), right)


def forest_form(b: BiLeveledTree):
    """Rewrite ``b`` as ``(t0, (t1, ..., tr))``.

    ``t0`` is the upper part with its (forced) leftmost node removed; the
    forest collects the lower pieces hanging at the remaining ``r`` leaves
    of the upper part, where ``r`` is the size of the upper set.
    """
    if not b.tree:
        raise ValueError("the empty tree has no forest form")
    upper, hanging = _prune_marked(b.tree, b.ideal, 0)
    if hanging[0]:
        raise ValueError("inadmissible upper set: piece under the leftmost node")
    return _drop_leftmost_node(upper), tuple(hanging[1:])


def tree_backslash_bileveled(b: BiLeveledTree, s: tuple) -> BiLeveledTree:
    """Graft ``s`` onto the rightmost leaf of ``b``, keeping ``b``'s upper set."""
    if not b.tree:
        raise ValueError("left factor must be nonempty")
    return BiLeveledTree(backslash(b.tree, s), b.ideal)
