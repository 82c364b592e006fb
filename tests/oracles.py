"""Slow reference implementations, used by the tests only.

The chain-counting oracles for Mobius values work on any
:class:`treesym.posets.FinitePoset` through its ``up`` and ``down``
bitmasks, independently of the sparse Mobius rows they check.
:func:`sympy_coinvariant_kernel` is the coinvariant solve by sympy's
``nullspace``, against which the plain-Python elimination is checked.
Then come, written as they were, the rules that faster code replaced:
the backslash decompositions that the table
:data:`treesym.trees_core.FAMILIES` replaced; the second-basis product
through the fundamental basis and the basis change that walks every up-set
bit by bit, replaced by the closed products of
:data:`treesym.hopf_algebra.M_PRODUCTS` and a ``to_M`` that sums by index;
and pattern avoidance by standardizing every subsequence.  Last come the
definitions that the package no longer needs: the cover relation of the
nodes of a tree, the admissibility test built on it, the three kinds of
covers of the paper's classification of the bi-leveled order (which
:func:`treesym.posets.m_cover_candidates` replaced), the inverse of the
forest form, and the fibers of ``tau``.
"""

from itertools import combinations
from typing import Iterator, Sequence

from treesym import hopf_algebra as ha
from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc
from treesym.hopf_algebra import LinComb, F
from treesym.hopf_modules import plus_coaction


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
    memo: dict = {}

    def from_idx(i: int) -> int:
        if i == j0:
            return 1
        if i not in memo:
            total = 0
            m = poset.up[i] & poset.down[j0] & ~(1 << i)
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
    Returns a list of fundamental-basis combinations with integer entries.
    """
    from sympy import Matrix, lcm

    basis = list(tc.enumerate_family("M", n))
    if restricted and n == 0:
        return []
    index = {b: i for i, b in enumerate(basis)}
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
    out = []
    for vec in kernel:
        denom = lcm([e.q for e in vec])
        ints = [int(e * denom) for e in vec]
        out.append(LinComb("M", "F", {
            basis[i]: v for i, v in enumerate(ints) if v}))
    return out


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


def is_admissible_ideal(t: tuple, ideal: frozenset) -> bool:
    """Check the bi-leveled constraints for ``(t, ideal)``."""
    n = tc.nodes(t)
    if n == 0:
        return ideal == frozenset()
    if 1 not in ideal or not ideal <= frozenset(range(1, n + 1)):
        return False
    down = tc.node_descendants(t)
    # up-closed: every ancestor of a member is a member
    for child, parent in node_covers(t):
        if child in ideal and parent not in ideal:
            return False
    # nothing strictly under node 1
    return not (ideal & down[1])


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
    sizes = [0] + [tc.nodes(f) for f in forest]
    base_pos, _ = tc._grafted_positions(sizes)
    return tc.BiLeveledTree(tree, frozenset(base_pos))


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
    for t02 in po.tamari_covers(t0):
        add(ideal_form(t02, forest), "i")
    for i, piece in enumerate(forest):
        for piece2 in po.tamari_covers(piece):
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
