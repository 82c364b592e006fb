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
decompositions of the backslash product.  :data:`FAMILIES` holds one
:class:`Family` record per tag (``"S"``, ``"Y"``, ``"M"``) with its text
encoding, degree, empty element, generator, splitting, grafting and
decompositions; code that handles all three families reads this table
instead of guessing the family from the shape of a value (the empty
permutation and the empty tree are both ``()``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Any, Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "LEAF", "BiLeveledTree", "DecoratedForest", "ParseError", "Family",
    "FAMILIES", "nodes", "leaves", "backslash", "tree_indecomposables",
    "perm_indecomposables", "node_descendants", "leftmost_branch",
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


def tree_indecomposables(t: tuple) -> tuple:
    """The unique maximal decomposition of ``t`` under ``backslash``.

    A tree is indecomposable when its root node is its rightmost node,
    i.e. its right subtree is empty.
    """
    out = []
    while t:
        out.append((t[0], LEAF))
        t = t[1]
    return tuple(out)


def _perm_cuts(w: tuple) -> list:
    """The lengths ``k`` of the prefixes of ``w`` that hold its ``k``
    largest values, ``0`` and ``len(w)`` included: the cuts of
    ``w = u \\ v``.  A running minimum finds them in one pass."""
    n = len(w)
    cuts = [0]
    low = n + 1
    for k, a in enumerate(w, 1):
        low = min(low, a)
        if low == n - k + 1:
            cuts.append(k)
    return cuts


def perm_indecomposables(w: tuple) -> tuple:
    """Factors of ``w = u1 \\ u2 \\ ... \\ ur`` with each factor indecomposable:
    the pieces between consecutive cuts, each standardized."""
    n = len(w)
    cuts = _perm_cuts(w)
    # the piece between the cuts j < k holds the values n-k+1 .. n-j
    return tuple(tuple(a - n + k for a in w[j:k])
                 for j, k in zip(cuts, cuts[1:]))


@lru_cache(maxsize=None)
def node_descendants(t: tuple) -> dict:
    """Map each node to the frozenset of nodes strictly under it."""
    down: dict = {}

    def fill(sub: tuple, offset: int) -> None:
        left, right = sub
        root = offset + nodes(left) + 1
        acc = set()
        if left:
            fill(left, offset)
            l_root = offset + nodes(left[0]) + 1
            acc |= down[l_root] | {l_root}
        if right:
            fill(right, root)
            r_root = root + nodes(right[0]) + 1
            acc |= down[r_root] | {r_root}
        down[root] = frozenset(acc)

    if t:
        fill(t, 0)
    return down


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


def format_bileveled(b: BiLeveledTree) -> str:
    inner = ",".join(str(i) for i in sorted(b.ideal))
    return f"{format_tree(b.tree)};{{{inner}}}"


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
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for left in all_trees(k):
            for right in all_trees(n - 1 - k):
                out.append((left, right))
    return tuple(out)


def all_perms(n: int) -> tuple:
    return tuple(permutations(range(1, n + 1)))


def is_admissible_ideal(t: tuple, ideal: frozenset) -> bool:
    """Check the bi-leveled constraints for ``(t, ideal)``."""
    n = nodes(t)
    if n == 0:
        return ideal == frozenset()
    if 1 not in ideal or not ideal <= frozenset(range(1, n + 1)):
        return False
    down = node_descendants(t)
    # nothing strictly under node 1, and up-closed: nothing marked under an
    # unmarked node
    return ideal.isdisjoint(down[1]) and all(
        ideal.isdisjoint(down[v]) for v in range(1, n + 1) if v not in ideal)


@lru_cache(maxsize=None)
def all_bileveled(n: int) -> tuple:
    if n == 0:
        return (BiLeveledTree(LEAF, frozenset()),)
    out = []
    for t in all_trees(n):
        down = node_descendants(t)
        branch = leftmost_branch(t)
        optional = [
            v for v in range(1, n + 1)
            if v not in branch and v not in down[1]
        ]
        for r in range(len(optional) + 1):
            for extra in combinations(optional, r):
                ideal = branch | frozenset(extra)
                if is_admissible_ideal(t, ideal):
                    out.append(BiLeveledTree(t, ideal))
    return tuple(out)


def enumerate_family(family: str, n: int) -> tuple:
    """Every element of degree ``n``, in the canonical order of the family:
    lexicographic on the text encodings."""
    fam = FAMILIES[family]
    return tuple(sorted(fam.generate(n), key=fam.format))


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


def split_tree_at(t: tuple, leaf_multiset: Sequence[int]) -> tuple:
    """Split ``t`` along a weakly increasing sequence of leaf indices."""
    parts = []
    offset = 0
    rest = t
    for i in leaf_multiset:
        first, rest = _split_tree_once(rest, i - offset)
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


def bileveled_splittings(b: BiLeveledTree, m: int) -> Iterator[DecoratedForest]:
    """Split a bi-leveled tree; parts carry their inherited node marks."""
    n = nodes(b.tree)
    for choice in combinations_with_replacement(range(n + 1), m):
        trees = split_tree_at(b.tree, choice)
        bounds = list(choice) + [n]
        parts = []
        prev = 0
        for tree_part, bound in zip(trees, bounds):
            marks = frozenset(p - prev for p in b.ideal if prev < p <= bound)
            parts.append((tree_part, marks))
            prev = bound
        yield tuple(parts)


def splittings(family: str, x, m: int) -> list:
    """All splittings of ``x`` along a multiset of ``m`` leaves."""
    return list(FAMILIES[family].split(x, m))


def restricted_splittings(b: BiLeveledTree, m: int) -> Iterator[DecoratedForest]:
    """Splittings of ``b`` whose first part is nonempty."""
    if not b.tree:
        raise ValueError("restricted splittings need a nonempty tree")
    for forest in bileveled_splittings(b, m):
        if forest[0][0]:
            yield forest


# ---------------------------------------------------------------------------
# grafting


def graft_trees(forest: Sequence[tuple], base: tuple) -> tuple:
    """Attach the root of ``forest[i]`` to the ``i``-th leaf of ``base``."""
    if len(forest) != leaves(base):
        raise ValueError("forest size must equal number of leaves of base")
    if not base:
        return forest[0]
    left, right = base
    k = leaves(left)
    return (graft_trees(forest[:k], left), graft_trees(forest[k:], right))


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


def _grafted_positions(part_sizes: Sequence[int]):
    """In-order positions of base nodes and of each part's nodes.

    For a grafting of parts ``(f0..fm)`` onto an ``m``-node base, returns
    ``(base_pos, part_offsets)`` where ``base_pos[j]`` is the final position
    of base node ``j+1`` and part ``j``'s node ``k`` lands at
    ``part_offsets[j] + k``.
    """
    base_pos = []
    part_offsets = []
    total = 0
    for j, size in enumerate(part_sizes):
        part_offsets.append(total + j)
        total += size
    for j in range(1, len(part_sizes)):
        base_pos.append(part_offsets[j])
    return base_pos, part_offsets


def graft_bileveled(forest: DecoratedForest, base: BiLeveledTree) -> BiLeveledTree:
    """Graft a decorated forest onto a bi-leveled base.

    The resulting marked set is the base's when the first part is empty,
    and otherwise the forest's marks together with all base nodes.
    """
    part_trees = [p[0] for p in forest]
    tree = graft_trees(part_trees, base.tree)
    base_pos, part_offsets = _grafted_positions([nodes(p) for p in part_trees])
    if not forest[0][0]:
        ideal = frozenset(base_pos[v - 1] for v in base.ideal)
    else:
        ideal = frozenset(base_pos) | frozenset(
            part_offsets[j] + k for j, (pt, marks) in enumerate(forest) for k in marks
        )
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
    cut in two by the backslash product."""

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
