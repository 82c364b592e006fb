"""Slow reference implementations, used by the tests only.

First the orders read pair by pair: :func:`leq_order` builds a
:class:`treesym.posets.FinitePoset` by testing the defining relation on
every pair, keeping the up-sets and the down-sets it reads, and reads its
covers from that closure; :func:`down_sets` gives the down-sets of any
order, those of :func:`leq_order` or the transpose of the ``up`` of a
built one (the package keeps up-sets only);
:func:`enumerate_by_text` sorts every element of a degree by its text:
the order of the ``enumerate`` listing, which sorts where it prints (the
canonical order of a family is its generator's);
:func:`row_from_order` is the Mobius recursion ``mu(x, y) = -sum of
mu(x, z) over x <= z < y``, taking the elements by the sizes of their
down-sets and listing the nonzero values below each, which the crosscut
rows of :class:`treesym.posets.FinitePoset` replaced; :func:`interval`
and :func:`is_interval_subset` read intervals from the up-sets and the
down-sets, the last the reference for the weak-order fiber test
:func:`treesym.posets.is_weak_interval`.
The chain-counting oracles for Mobius values work on any
:class:`treesym.posets.FinitePoset` through its up-sets and down-sets,
independently of the sparse Mobius rows they check.
:func:`sympy_coinvariant_kernel` is the coinvariant solve by sympy's
``nullspace``, against which the plain-Python elimination is checked;
:func:`fraction_coinvariant_kernel` back-substitutes over the rationals
from that elimination's forward echelon form, one vector per free column,
where :func:`treesym.hopf_modules.coinvariant_kernel` returns only the
trees at the free columns, the last terms of these vectors.
Then come, written as they were, the rules that faster code replaced:
the backslash decompositions that the table
:data:`treesym.trees_core.FAMILIES` replaced; the second-basis product
through the fundamental basis and the basis change that walks every up-set
bit by bit, replaced by the closed products of
:data:`treesym.hopf_algebra.M_PRODUCTS` and a ``to_M`` that sums by index;
pattern avoidance by standardizing every subsequence; the closed-form
weak-order Mobius row with its sets of ascents drawn by ``combinations``,
which the submask walk of :func:`treesym.posets.weak_mobius_row` replaced;
and the set bits of a mask found lowest first, one step per bit, which
the byte table of ``posets._bits`` replaced.  Last come the
definitions that the package no longer needs: the cover relation of the
nodes of a tree, the descendants of each node, the admissibility test
built on them, the generation of bi-leveled trees by filtering every set
of optional nodes through it (which the direct generation of
:func:`treesym.trees_core.all_bileveled` replaced), the restricted
splittings as every splitting less those with an empty first part (which
:func:`treesym.trees_core.restricted_splittings` replaced by cutting at
leaf 1 or later), the cut of a tree at one leaf by a recursion that
copies the path from that leaf to the root (the reference for the cut
tables of ``trees_core._tree_cuts``, which build each tree's table from
its subtrees' tables and share their parts), the splittings that cut
what is left of a tree anew at each leaf by it and scan the whole upper
set for the marks of each part, and the coaction summed over the
two-part splittings of each bi-leveled tree (both of which the cut
tables replaced), the three kinds of covers of the paper's
classification of the bi-leveled order (which the block lookups of
``posets._m_cover_steps`` replaced), the inverse of the forest form, and
the fibers of ``tau``.  Last of all, the two Hopf-module reports as they
were before they kept each single-element image for the length of the
call: they recompute every image for every pair, and call each function
through its module attribute, so a wrapper put on one reaches them as it
reaches the reports they check.  Then the
index sets of the final bijection as they were before one pass classified
each permutation: a component is tested against the section image by
``beta`` then ``iota``, and each set filters every permutation on its own
(the package keeps the big set only as the members of its class table);
and the big index set and the classification of one permutation read from
the standardized components, which the one cut scan of
``hopf_modules._classify`` replaced.  Finally, the count of bi-leveled
trees by its recurrence through a memo, which the forward loop of
:func:`treesym.series.a_number` replaced.  At the end of the file come
the references that only the tests read, which the package no longer
holds: the Tamari covers of one tree built as trees, the reference for the
position-built rotation rows of the Tamari and bi-leveled orders; the
indecomposable factors of a tree; the closed formula for the counts
``B_n`` of indecomposable bi-leveled trees; the degree-0 basis vector; and
the product, composition and shift of truncated series, kept as
coefficient tuples as :mod:`treesym.series` keeps them.
"""

import math
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

from treesym import hopf_algebra as ha
from treesym import hopf_modules as hm
from treesym import posets as po
from treesym import projections as pj
from treesym import series as se
from treesym import trees_core as tc
from treesym.hopf_algebra import LinComb, F, Mb
from treesym.hopf_modules import plus_coaction


def leq_order(elements: Sequence, leq) -> po.FinitePoset:
    """The order on ``elements`` built by testing ``leq`` on every pair,
    with its covers read from that closure."""
    elements = tuple(elements)
    up, down = [0] * len(elements), [0] * len(elements)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if leq(x, y):
                up[i] |= 1 << j
                down[j] |= 1 << i
    succ = [[j for j in po._bits(up[i] & ~(1 << i))
             if up[i] & down[j] == (1 << i) | (1 << j)]
            for i in range(len(elements))]
    poset = po.FinitePoset(elements, succ)
    poset.up = up
    _DOWN[poset] = down
    return poset


# the down-sets of each order read so far, for as long as the order lives
_DOWN = weakref.WeakKeyDictionary()


def down_sets(poset) -> list:
    """The bitmask of the elements below each element (reflexive): the
    ones :func:`leq_order` read pair by pair, and for any other order the
    transpose of its ``up``."""
    if poset not in _DOWN:
        down = [0] * len(poset)
        for i, mask in enumerate(poset.up):
            for j in po._bits(mask):
                down[j] |= 1 << i
        _DOWN[poset] = down
    return _DOWN[poset]


def enumerate_by_text(family: str, n: int) -> tuple:
    """Every element of degree ``n``, sorted by its text encoding."""
    fam = tc.FAMILIES[family]
    return tuple(sorted(fam.generate(n), key=fam.format))


def row_from_order(poset, i: int) -> dict:
    """The nonzero Mobius values ``mu(elements[i], .)`` by the recursion
    ``mu(x, y) = -sum of mu(x, z) over x <= z < y``, taking the ``y`` by
    the number of elements below them, listing the nonzero values below
    each ``y`` and summing them one by one."""
    down = down_sets(poset)
    above = po._bits(poset.up[i] & ~(1 << i))
    above.sort(key=lambda j: down[j].bit_count())
    row = {i: 1}
    support = 1 << i
    for j in above:
        total = sum(row[k] for k in po._bits(support & down[j]))
        if total:
            row[j] = -total
            support |= 1 << j
    return row


def interval(poset, x, y) -> list:
    """Elements ``z`` with ``x <= z <= y``."""
    m = poset.up[poset.index[x]] & down_sets(poset)[poset.index[y]]
    return [poset.elements[j] for j in po._bits(m)]


def is_interval_subset(poset, subset) -> bool:
    """Is ``subset`` exactly an interval ``[lo, hi]`` of ``poset``?"""
    idx = [poset.index[x] for x in subset]
    if not idx:
        return False
    mask = 0
    for i in idx:
        mask |= 1 << i
    down = down_sets(poset)
    mins = [i for i in idx if down[i] & mask == 1 << i]
    maxs = [i for i in idx if poset.up[i] & mask == 1 << i]
    if len(mins) != 1 or len(maxs) != 1:
        return False
    return poset.up[mins[0]] & down[maxs[0]] == mask


def all_chains(poset) -> Iterator[tuple]:
    """All nonempty chains, as tuples of elements in increasing order."""
    n = len(poset.elements)

    def extend(prefix: tuple, i: int) -> Iterator[tuple]:
        yield prefix
        above = poset.up[i] & ~(1 << i)
        m = above
        while m:
            j = (m & -m).bit_length() - 1
            yield from extend(prefix + (poset.elements[j],), j)
            m &= m - 1

    for i in range(n):
        yield from extend((poset.elements[i],), i)


def chain_sum(poset) -> int:
    """Sum of ``(-1)**edges`` over all nonempty chains; 1 on intervals."""
    n = len(poset.elements)
    memo = [None] * n

    def starting_at(i: int) -> int:
        if memo[i] is None:
            total = 1
            m = poset.up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                total -= starting_at(j)
                m &= m - 1
            memo[i] = total
        return memo[i]

    return sum(starting_at(i) for i in range(n))


def chain_sum_meeting_all_blocks(poset, blocks: Sequence[set]) -> int:
    """Sum of ``(-1)**edges`` over chains meeting every block."""
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    total = 0
    for chain in all_chains(poset):
        if {block_of[x] for x in chain} == set(range(len(blocks))):
            total += (-1) ** (len(chain) - 1)
    return total


def hall_mobius(poset, x, y) -> int:
    """Mobius value via chains from ``x`` to ``y`` (test oracle)."""
    if not poset.leq(x, y):
        return 0
    i0, j0 = poset.index[x], poset.index[y]
    below_y = down_sets(poset)[j0]
    memo: dict = {}

    def from_idx(i: int) -> int:
        if i == j0:
            return 1
        if i not in memo:
            total = 0
            m = poset.up[i] & below_y & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                total -= from_idx(j)
                m &= m - 1
            memo[i] = total
        return memo[i]

    return from_idx(i0)


def sympy_coinvariant_kernel(n: int, restricted: bool) -> list:
    """Basis of the coinvariants in degree ``n``, by an exact kernel solve.

    Solves ``coaction(x) = x (x) 1`` over the rationals in the fundamental
    basis, using the restricted coaction when ``restricted`` is true.
    Returns a list of fundamental-basis combinations with rational entries,
    one per free column of the reduced row echelon form, in increasing
    column order: 1 at that column and 0 at every other free column.
    """
    from sympy import Matrix

    basis = list(tc.enumerate_family("M", n))
    if restricted and n == 0:
        return []
    rows: dict = {}
    for j, b in enumerate(basis):
        image = plus_coaction(F("M", b)) if restricted \
            else ha.coaction_rho(F("M", b))
        for keys, c in image.terms.items():
            rows.setdefault(keys, [0] * len(basis))[j] += c
        # subtract x (x) 1
        rows.setdefault((b, ()), [0] * len(basis))[j] -= 1
    mat = Matrix([row for row in rows.values() if any(row)])
    if not rows:
        return []
    kernel = mat.nullspace() if mat.rows else [
        Matrix([1 if i == j else 0 for i in range(len(basis))])
        for j in range(len(basis))]
    return [LinComb("M", "F", {basis[i]: Fraction(int(e.p), int(e.q))
                               for i, e in enumerate(vec) if e})
            for vec in kernel]


def fraction_coinvariant_kernel(n: int, restricted: bool) -> list:
    """The coinvariant vectors of degree ``n`` over the rationals, from the
    forward echelon form of :func:`treesym.hopf_modules._coinvariant_echelon`:
    for each free column ``f``, in increasing order, 1 at ``f``, 0 at every
    other free column, and at each pivot ``p`` below ``f``, last pivot
    first, the value that makes row ``p`` vanish.  A row whose pivot is
    above ``f`` has no entry at or below ``f``, so it vanishes already."""
    if restricted and n == 0:
        return []
    basis, pivots = hm._coinvariant_echelon(n, restricted)
    out = []
    for f in range(len(basis)):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for p in sorted((p for p in pivots if p < f), reverse=True):
            row = pivots[p]
            total = sum(x * vec[c] for c, x in row.items() if c in vec)
            if total:
                vec[p] = -total / row[p]
        out.append(LinComb("M", "F", {basis[i]: vec[i] for i in sorted(vec)}))
    return out


def pivot_columns(rows: list) -> list:
    """The pivot columns of the reduced row echelon form of the integer
    rows ``{column: value}``, over the rationals: Gauss-Jordan elimination
    in :class:`Fraction`, column by column from the least, on the dense
    matrix.  They depend on the row space only."""
    width = 1 + max((c for row in rows for c in row), default=-1)
    dense = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        lead = next((i for i in range(rank, len(dense)) if dense[i][col]),
                    None)
        if lead is None:
            continue
        dense[rank], dense[lead] = dense[lead], dense[rank]
        top = dense[rank]
        for i, row in enumerate(dense):
            if i != rank and row[col]:
                f = row[col] / top[col]
                dense[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(col)
    return pivots


def perm_backslash_decompositions(w: tuple) -> tuple:
    """All pairs ``(u, v)`` of permutations with ``w`` = ``u`` over ``v``:
    the first ``k`` letters of ``w`` are its ``k`` largest values, ``u`` is
    their standardization and ``v`` the untouched remainder."""
    n = len(w)
    out = []
    for k in range(n + 1):
        if set(w[:k]) == set(range(n - k + 1, n + 1)):
            out.append((tc.standardize(w[:k]), w[k:]))
    return tuple(out)


def perm_indecomposables(w: tuple) -> tuple:
    """Factors of ``w = u1 \\ u2 \\ ... \\ ur`` with each factor indecomposable.

    ``w = u\\v`` exactly when the first ``k`` values of ``w`` are the ``k``
    largest; each factor is standardized.
    """
    out = []
    start = 0
    n = len(w)
    seen_min = n + 1
    for i, a in enumerate(w):
        seen_min = min(seen_min, a)
        # positions start..i hold the largest len-many remaining values
        if seen_min == n - i:
            out.append(tc.standardize(w[start:i + 1]))
            start = i + 1
    return tuple(out)


def b_decompose(c):
    """Write a nonempty bi-leveled tree as ``b`` over ``s`` with ``b``
    indecomposable: the decomposition with the largest ``s``."""
    if not c.tree:
        raise ValueError("only positive degrees decompose")
    best = None
    for b, s in tc.bileveled_backslash_decompositions(c):
        if best is None or tc.nodes(s) > tc.nodes(best[1]):
            best = (b, s)
    return best


def to_M(a):
    """Rewrite a fundamental-basis combination in the second basis, using
    F_x = sum of M_y over y at least x, one key per up-set bit."""
    family = a.family
    out: dict = {}
    for x, c in a.terms.items():
        poset = po.family_poset(family, tc.FAMILIES[family].degree(x))
        i = poset.index[x]
        mask = poset.up[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            y = poset.elements[j]
            out[y] = out.get(y, 0) + c
            mask &= mask - 1
    return LinComb(family, "M", out)


def mul_M(a, b):
    """Product in the second basis, through the fundamental basis."""
    return to_M(ha.mul_F(ha.to_F(a), ha.to_F(b)))


def avoids(w: tuple, pattern: tuple) -> bool:
    """Does ``w`` avoid the classical pattern?"""
    target = tc.standardize(pattern)
    for sub in combinations(w, len(pattern)):
        if tc.standardize(sub) == target:
            return False
    return True


def avoids_pinned(w: tuple, pattern: tuple) -> bool:
    """Pinned variant: the pattern's first letter must be ``w``'s first."""
    if not w:
        return True
    target = tc.standardize(pattern)
    for rest in combinations(w[1:], len(pattern) - 1):
        if tc.standardize((w[0],) + rest) == target:
            return False
    return True


def weak_mobius_row(u: tuple) -> dict:
    """The closed-form weak-order Mobius row of ``u``, each set ``J`` of
    ascent values drawn by ``combinations`` and its blocks reversed on a
    fresh value map."""
    pos = {a: i for i, a in enumerate(u)}
    ascents = [k for k in range(1, len(u)) if pos[k] < pos[k + 1]]
    row = {}
    for r in range(len(ascents) + 1):
        for J in combinations(ascents, r):
            image = list(range(len(u) + 1))
            i = 0
            while i < r:
                start = i
                while i + 1 < r and J[i + 1] == J[i] + 1:
                    i += 1
                lo, hi = J[start], J[i] + 1
                image[lo:hi + 1] = range(hi, lo - 1, -1)
                i += 1
            row[tuple(image[a] for a in u)] = -1 if r % 2 else 1
    return row


def bits(mask: int) -> list:
    """Positions of the set bits of ``mask``, lowest first, one step per
    bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def node_covers(t: tuple) -> tuple:
    """Cover pairs ``(child, parent)`` of the node order, 1-based in-order."""
    out = []

    def walk(sub: tuple, offset: int) -> int:
        left, right = sub
        root = offset + tc.nodes(left) + 1
        if left:
            out.append((walk(left, offset), root))
        if right:
            out.append((walk(right, root), root))
        return root

    if t:
        walk(t, 0)
    return tuple(out)


def node_descendants(t: tuple) -> dict:
    """Map each node to the frozenset of nodes strictly under it."""
    down: dict = {}

    def fill(sub: tuple, offset: int) -> None:
        left, right = sub
        root = offset + tc.nodes(left) + 1
        acc = set()
        if left:
            fill(left, offset)
            l_root = offset + tc.nodes(left[0]) + 1
            acc |= down[l_root] | {l_root}
        if right:
            fill(right, root)
            r_root = root + tc.nodes(right[0]) + 1
            acc |= down[r_root] | {r_root}
        down[root] = frozenset(acc)

    if t:
        fill(t, 0)
    return down


def is_admissible_ideal(t: tuple, ideal: frozenset) -> bool:
    """Check the bi-leveled constraints for ``(t, ideal)``."""
    n = tc.nodes(t)
    if n == 0:
        return ideal == frozenset()
    if 1 not in ideal or not ideal <= frozenset(range(1, n + 1)):
        return False
    down = node_descendants(t)
    # up-closed: every ancestor of a member is a member
    for child, parent in node_covers(t):
        if child in ideal and parent not in ideal:
            return False
    # nothing strictly under node 1
    return not (ideal & down[1])


def all_bileveled(n: int) -> tuple:
    """Every bi-leveled tree of degree ``n``, by filtering every set of
    optional nodes: tree by tree, the leftmost branch plus each subset of
    the other nodes not under node 1, by size and then lexicographically,
    kept when admissible."""
    if n == 0:
        return (tc.BiLeveledTree(tc.LEAF, frozenset()),)
    out = []
    for t in tc.all_trees(n):
        down = node_descendants(t)
        branch = tc.leftmost_branch(t)
        optional = [
            v for v in range(1, n + 1)
            if v not in branch and v not in down[1]
        ]
        for r in range(len(optional) + 1):
            for extra in combinations(optional, r):
                ideal = branch | frozenset(extra)
                if is_admissible_ideal(t, ideal):
                    out.append(tc.BiLeveledTree(t, ideal))
    return tuple(out)


def restricted_splittings(b: tc.BiLeveledTree, m: int) -> list:
    """Every splitting of ``b`` along ``m`` leaves whose first part is
    nonempty, by dropping the others."""
    return [forest for forest in tc.bileveled_splittings(b, m)
            if forest[0][0]]


def split_tree_once(t: tuple, i: int):
    """Sever ``t`` along the path from leaf ``i`` to the root, copying the
    path: the reference for the cut tables of ``trees_core._tree_cuts``."""
    if not t:
        return tc.LEAF, tc.LEAF
    left, right = t
    nl = tc.nodes(left)
    if i <= nl:
        l0, l1 = split_tree_once(left, i)
        return l0, (l1, right)
    r0, r1 = split_tree_once(right, i - nl - 1)
    return (left, r0), r1


def split_tree_at(t: tuple, leaf_multiset: Sequence[int]) -> tuple:
    """Split ``t`` along a weakly increasing sequence of leaves, cutting
    what is left by the per-leaf recursion each time."""
    parts = []
    offset = 0
    rest = t
    for i in leaf_multiset:
        first, rest = split_tree_once(rest, i - offset)
        parts.append(first)
        offset = i
    return tuple(parts) + (rest,)


def bileveled_splittings(b: tc.BiLeveledTree, m: int) -> list:
    """Every splitting of ``b`` along ``m`` leaves; each part's marks are
    found by scanning the whole upper set."""
    n = tc.nodes(b.tree)
    out = []
    for choice in combinations_with_replacement(range(n + 1), m):
        bounds = list(choice) + [n]
        parts = []
        prev = 0
        for tree_part, bound in zip(split_tree_at(b.tree, choice), bounds):
            marks = frozenset(p - prev for p in b.ideal if prev < p <= bound)
            parts.append((tree_part, marks))
            prev = bound
        out.append(tuple(parts))
    return out


def split_coaction(a: LinComb, split) -> ha.TensorComb:
    """The coaction through ``split``, which gives the two-part splittings
    of one bi-leveled tree: the first part keeps its marks, the second
    forgets them."""
    out: dict = {}
    for x, c in a.terms.items():
        for (t0, m0), (t1, _m1) in split(x):
            keys = (tc.BiLeveledTree(t0, m0), t1)
            out[keys] = out.get(keys, 0) + c
    return ha.TensorComb(("M", "Y"), "F", out)


def _add_leftmost_node(t: tuple) -> tuple:
    if not t:
        return (tc.LEAF, tc.LEAF)
    return (_add_leftmost_node(t[0]), t[1])


def ideal_form(t0: tuple, forest: Sequence[tuple]) -> tc.BiLeveledTree:
    """Inverse of :func:`treesym.trees_core.forest_form`."""
    if len(forest) != tc.nodes(t0) + 1:
        raise ValueError("forest size must be one more than the upper tree size")
    upper = _add_leftmost_node(t0)
    tree = tc.graft_trees((tc.LEAF,) + tuple(forest), upper)
    # in-order, the upper node j follows the j - 1 upper nodes before it
    # and the pieces hanging at the leaves left of it, forest[:j - 1]
    return tc.BiLeveledTree(tree, frozenset(
        j + sum(tc.nodes(f) for f in forest[:j - 1])
        for j in range(1, len(forest) + 1)))


def _rotate_leftmost_node(t: tuple) -> tuple:
    """Rotate the leftmost node across its parent (positions are kept)."""
    left, right = t
    if not left:
        raise ValueError("the leftmost node has no parent to rotate across")
    if not left[0]:
        # ``left`` is the leftmost node: ((),B) over C becomes ((),(B,C))
        return (tc.LEAF, (left[1], right))
    return (_rotate_leftmost_node(left), right)


def m_covers_by_types(b: tc.BiLeveledTree) -> dict:
    """Candidate covers of ``b`` from the three local moves, with types.

    (i) rotate inside exactly one component of the forest form, mark count
    unchanged; (ii) rotate the leftmost node across its parent -- allowed
    when the parent has no other marked child -- and unmark the parent;
    (iii) keep the tree, unmark one marked node other than the two
    smallest.  Returns ``{candidate: sorted tuple of types}`` without
    filtering by minimality.
    """
    out: dict = {}
    if not b.tree:
        return out

    def add(cand, kind):
        if is_admissible_ideal(cand.tree, cand.ideal):
            out.setdefault(cand, set()).add(kind)

    # type (i): a rotation inside exactly one component of the forest form
    # (the marked upper tree or one lower piece); the mark count is fixed
    t0, forest = tc.forest_form(b)
    for t02 in tamari_covers(t0):
        add(ideal_form(t02, forest), "i")
    for i, piece in enumerate(forest):
        for piece2 in tamari_covers(piece):
            add(ideal_form(t0, forest[:i] + (piece2,) + forest[i + 1:]),
                "i")

    marked = sorted(b.ideal)
    if len(marked) >= 2:
        # (ii): the parent of node 1 is the second-smallest marked node
        parent = dict(node_covers(b.tree))
        p = parent.get(1)
        children_of_p = [c for c, q in node_covers(b.tree) if q == p]
        if p is not None and not any(
                c in b.ideal for c in children_of_p if c != 1):
            add(tc.BiLeveledTree(_rotate_leftmost_node(b.tree),
                                 b.ideal - {p}), "ii")
        # (iii): drop a marked node other than the two smallest
        for v in marked[2:]:
            add(tc.BiLeveledTree(b.tree, b.ideal - {v}), "iii")
    return {cand: tuple(sorted(kinds)) for cand, kinds in out.items()}


def tau_fiber(t: tuple) -> tuple:
    """All permutations with shape ``t``: words read off linear extensions."""
    n = tc.nodes(t)
    return tuple(sorted(w for w in tc.all_perms(n) if pj.tau(w) == t))


def plus_module_verify(n: int) -> dict:
    """The restricted Hopf-module law on every pair of total degree ``n``,
    each side built afresh for each pair."""
    violations = []
    for n1 in range(1, n + 1):
        for b in tc.all_bileveled(n1):
            fb = F("M", b)
            coact = hm.plus_coaction(fb)
            for t in tc.all_trees(n - n1):
                ft = F("Y", t)
                lhs = hm.plus_coaction(hm.plus_action(fb, ft))
                rhs = ha.tensor_mul(
                    coact, ha.comul_F(ft), hm.plus_action, ha.mul_F)
                if lhs != rhs:
                    violations.append(
                        (tc.format_bileveled(b), tc.format_tree(t)))
    return {"n": n, "ok": not violations, "violations": violations}


def bbslash_verify(n: int) -> dict:
    """The transported structure on each bi-leveled tree of degree ``n``:
    unit, closed coaction, and the link to ``coaction_rho``, each basis
    change and coaction computed afresh for each tree."""
    violations = []
    for b in tc.all_bileveled(n):
        bp, t = hm.bbslash_decompose(b)
        closed = ha.rho_M_closed(b)
        if hm.msym_action_M(bp, t, tc.LEAF) != Mb("M", b) \
                or hm.msym_coaction_M(bp, t) != closed \
                or ha.tensor_apply(closed, ha.to_F, ha.to_F) \
                != ha.coaction_rho(ha.to_F(Mb("M", b))):
            violations.append(tc.format_bileveled(b))
    return {"n": n, "ok": not violations, "violations": violations}


def component_in_section_image(c: tuple) -> bool:
    """Is the indecomposable component the section value of a coinvariant
    index (nonempty, not a fiber top)?  Projects by ``beta`` and lifts back
    by ``iota``."""
    b = pj.beta(c)
    return hm.is_b_prime(b) and pj.iota(b) == c


def in_script_s_prime(w: tuple) -> bool:
    """Members of the big index set whose maximal initial run of components
    passing :func:`component_in_section_image` has even length."""
    length = 0
    for c in perm_indecomposables(w):
        if not component_in_section_image(c):
            break
        length += 1
    return hm.in_script_s(w) and length % 2 == 0


def script_s(n: int) -> tuple:
    """The big index set of degree ``n``: every permutation filtered by
    ``in_script_s``."""
    return tuple(w for w in tc.enumerate_family("S", n) if hm.in_script_s(w))


def script_s_prime(n: int) -> tuple:
    """The restricted index set of degree ``n``: every permutation filtered
    by :func:`in_script_s_prime`."""
    return tuple(
        w for w in tc.enumerate_family("S", n) if in_script_s_prime(w))


def in_script_s(w: tuple) -> bool:
    """The big index set read from the standardized components: the last
    one contains 132, or there are none."""
    comps = perm_indecomposables(w)
    return not comps or not pj.avoids_132(comps[-1])


def classify(w: tuple) -> tuple:
    """``(big, even, first)`` of ``hopf_modules._classify`` read from the
    standardized components: :func:`in_script_s`, the maximal initial run
    in the section image has even length, and the length of the first
    component (0 if none)."""
    comps = perm_indecomposables(w)
    length = 0
    for c in comps:
        if c not in hm._sections(len(c))[1]:
            break
        length += 1
    return in_script_s(w), length % 2 == 0, len(comps[0]) if comps else 0


@lru_cache(maxsize=None)
def a_number(n: int) -> int:
    """Number of bi-leveled trees with ``n`` nodes, by the recurrence
    splitting at the leftmost node's hanging piece.  It recurses n deep on
    a cold memo, so ask for the degrees in increasing order."""
    if n == 0:
        return 1
    return math.comb(2 * n - 2, n - 1) // n + sum(
        a_number(i) * a_number(n - i) for i in range(1, n))


def tamari_covers(t: tuple) -> tuple:
    """The Tamari covers of ``t``, each a node moved over its left child:
    the rotation at the root first, then those inside the left subtree,
    then those inside the right subtree."""
    if not t:
        return ()
    left, right = t
    out = []
    if left:
        a, b = left
        out.append((a, (b, right)))
    out += [(l2, right) for l2 in tamari_covers(left)]
    out += [(left, r2) for r2 in tamari_covers(right)]
    return tuple(out)


def tree_indecomposables(t: tuple) -> tuple:
    """The unique maximal decomposition of ``t`` under ``backslash``.

    A tree is indecomposable when its root node is its rightmost node,
    i.e. its right subtree is empty.
    """
    out = []
    while t:
        out.append((t[0], tc.LEAF))
        t = t[1]
    return tuple(out)


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
            out.append(1)
            continue
        total = sum(k * math.comb(2 * n - k - 3, n - k - 1) * se.catalan(k)
                    for k in range(n))
        value, remainder = divmod(total, n - 1)
        if remainder:
            raise ArithmeticError("non-integer value in the B sequence")
        out.append(value)
    return tuple(out)


def unit(family: str) -> LinComb:
    """The degree-0 fundamental basis vector."""
    return F(family, tc.FAMILIES[family].empty)


def product(a: tuple, b: tuple) -> tuple:
    """The product of two truncated series, to the shorter order."""
    return tuple(sum(a[k] * b[n - k] for k in range(n + 1))
                 for n in range(min(len(a), len(b))))


def compose(outer: tuple, inner: tuple) -> tuple:
    """``outer(inner)``, to the shorter order, for an ``inner`` with no
    constant term."""
    if inner[0]:
        raise ValueError("composition needs a zero constant term")
    order = min(len(outer), len(inner))
    out = (0,) * order
    power = (1,) + (0,) * (order - 1)
    for c in outer[:order]:
        out = tuple(x + c * p for x, p in zip(out, power))
        power = product(power, inner)
    return out


def shift(a: tuple) -> tuple:
    """``q`` times a truncated series, to the same order."""
    return (0,) + a[:-1]
