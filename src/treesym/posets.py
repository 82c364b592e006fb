"""
The three partial orders, their Mobius functions, and interval-retract checks.

* permutations: ``u <= v`` iff the inversion set of ``u`` is contained in
  that of ``v``; covers swap adjacent values ``k, k+1`` appearing in order;
* trees: covers move a child node from the left to the right branch of its
  parent (a rotation); the order is the transitive closure;
* marked trees: ``(s; S) <= (t; T)`` iff ``s <= t`` for trees and ``S >= T``;
  a cover makes at most one rotation and drops at most one mark (the rules
  that decide them are in :func:`m_covers`).

:class:`FinitePoset` is built from the elements of a finite poset and, for
each, the list of the indices of its covers, and builds its order relation,
as bitmask rows, the first time something reads it.  :data:`ORDERS` gives
each family tag the builder of those index lists for a graded piece and,
where one is known, its closed-form Mobius row.  The Tamari and bi-leveled
builders build no cover as an element: a tree's rotations are found by
position in the canonical order, and a bi-leveled cover by its mark set in
its tree's block of elements.  The canonical order of a family is its
generator's; :func:`hasse_dot` sorts by text where it prints.  A Mobius
row is computed where it is read, and not kept, by the recursion over
the closure, keeping one bitmask per value and counting bits; a single
value ``mu(x, y)`` by the same recursion over ``[x, y]``.
:func:`mobius_row_of` reads a Mobius row by element, in closed form where
there is one, so an order is built only where its covers or its closure
are read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from . import projections as pj
from . import trees_core as tc

__all__ = [
    "FinitePoset", "ORDERS", "family_poset", "inversion_set", "weak_leq",
    "weak_covers", "weak_mobius_row", "is_weak_interval", "tamari_covers",
    "m_covers", "mobius_row_of", "mobius", "interval_retract_verify",
    "fiberwise_mobius_verify", "hasse_dot",
]


class FinitePoset:
    """A finite poset given by its elements and its cover relation.

    ``succ[i]`` lists the indices of the elements covering ``elements[i]``.
    ``up[i]`` and ``down[i]``, the bitmasks of the elements above and below
    ``elements[i]`` (both reflexive), are the closures of the covers and of
    the reversed covers.  They are built on first read, as is ``index``,
    the position of each element.  A sparse Mobius row ``mu(x, .)`` is
    computed by the recursion over the closures where it is read, and is
    not kept; a single value ``mu(x, y)`` by the recursion over ``[x, y]``.
    """

    def __init__(self, elements: Sequence, succ: list):
        self.elements = tuple(elements)
        self.succ = succ

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def up(self) -> list:
        return _transitive_closure(self.succ)

    @cached_property
    def down(self) -> list:
        below = [[] for _ in self.succ]
        for i, js in enumerate(self.succ):
            for j in js:
                below[j].append(i)
        return _transitive_closure(below)

    @cached_property
    def _heights(self) -> list:
        # z < y strictly implies fewer elements below z than below y
        return [m.bit_count() for m in self.down]

    def leq(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def above(self, x) -> list:
        """The elements ``y >= x``, in index order."""
        return [self.elements[j] for j in _bits(self.up[self.index[x]])]

    def covers(self) -> tuple:
        """All cover pairs ``(x, y)`` with ``x`` covered by ``y``, in index
        order of ``x`` and then of ``y``."""
        return tuple((x, self.elements[j])
                     for x, js in zip(self.elements, self.succ)
                     for j in sorted(js))

    def mobius(self, x, y) -> int:
        i, j = self.index[x], self.index[y]
        return self._row_from_order(i, self.up[i] & self.down[j]).get(j, 0)

    def mobius_row(self, i: int) -> dict:
        """The nonzero values ``mu(elements[i], .)``, keyed by index."""
        return self._row_from_order(i, self.up[i])

    def _row_from_order(self, i: int, span: int) -> dict:
        """``mu(x, y) = -sum of mu(x, z) over x <= z < y``, for the ``y`` of
        the bitmask ``span`` in a linear extension; ``span`` lies above
        ``x`` and holds ``[x, y]`` for each of its ``y``.  The ``z`` with a
        nonzero value are kept as one bitmask per value ``v``, so the sum
        is the sum of ``v * |mask_v & down[y]|``, its bits counted in C."""
        above = _bits(span & ~(1 << i))
        above.sort(key=self._heights.__getitem__)
        down = self.down
        row = {i: 1}
        support = {1: 1 << i}
        for j in above:
            below = down[j]
            total = 0
            for v, mask in support.items():
                total += v * (mask & below).bit_count()
            if total:
                row[j] = -total
                support[-total] = support.get(-total, 0) | 1 << j
        return row


def _bits(mask: int) -> list:
    """Positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transitive_closure(succ: list) -> list:
    """Reflexive-transitive closure of a DAG given as successor index lists,
    as bitmasks."""
    n = len(succ)
    reach = [None] * n

    def solve(i: int) -> int:
        if reach[i] is None:
            reach[i] = -1  # sentinel; the input must be acyclic
            mask = 1 << i
            for j in succ[i]:
                mask |= solve(j)
            reach[i] = mask
        elif reach[i] == -1:
            raise ValueError("cover relation contains a cycle")
        return reach[i]

    for i in range(n):
        solve(i)
    del solve  # free the cycle through its own cell, and the lists it holds
    return reach


# ---------------------------------------------------------------------------
# the three families


def inversion_set(w: tuple) -> frozenset:
    """Position pairs ``(i, j)`` with ``i < j`` and ``w(i) > w(j)``."""
    n = len(w)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    )


def weak_leq(u: tuple, v: tuple) -> bool:
    if len(u) != len(v):
        raise ValueError("permutations must have the same size")
    return inversion_set(u) <= inversion_set(v)


def weak_covers(w: tuple) -> tuple:
    """Covers swap the values ``k`` and ``k+1`` when ``k`` appears first."""
    pos = {a: i for i, a in enumerate(w)}
    out = []
    for k in range(1, len(w)):
        if pos[k] < pos[k + 1]:
            lst = list(w)
            lst[pos[k]], lst[pos[k + 1]] = k + 1, k
            out.append(tuple(lst))
    return tuple(out)


def weak_mobius_row(u: tuple) -> dict:
    """The nonzero Mobius values ``mu(u, .)`` of the weak order, in closed
    form (Aguiar-Sottile, Adv. Math. 191, 2005).

    ``mu(u, v) = (-1)**len(J)`` when ``J`` is a set of values ``k`` with
    ``k`` before ``k+1`` in ``u`` and ``v`` is ``u`` with each block of
    consecutive values joined by ``J`` reversed; otherwise ``mu(u, v) = 0``.
    """
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


def is_weak_interval(perms: Iterable[tuple]) -> bool:
    """Are these permutations of one size exactly an interval of the weak
    order?

    With ``lo`` and ``hi`` members with the fewest and the most inversions,
    every member must lie between them, and every weak cover of a member
    that stays below ``hi`` must be a member.  Every element of
    ``[lo, hi]`` is reached from ``lo`` by such covers, so the members are
    then exactly ``[lo, hi]``.  A cover of ``w <= hi`` that swaps ``k`` at
    position ``i`` with ``k+1`` at position ``j > i`` adds the one
    inversion ``(i, j)``, so it stays below ``hi`` exactly when that pair
    is an inversion of ``hi``.
    """
    members = set(perms)
    if not members:
        return False
    inversions = [inversion_set(w) for w in members]
    bottom = min(inversions, key=len)
    top = max(inversions, key=len)
    if not all(bottom <= s <= top for s in inversions):
        return False
    for w in members:
        pos = {a: i for i, a in enumerate(w, 1)}
        for k in range(1, len(w)):
            i, j = pos[k], pos[k + 1]
            if i < j and (i, j) in top:
                v = list(w)
                v[i - 1], v[j - 1] = k + 1, k
                if tuple(v) not in members:
                    return False
    return True


def _rotations(t: tuple, offset: int = 0) -> list:
    """Each rotation of ``t`` as ``(t2, p, c)``: node ``p`` moved over its
    left child ``c`` (in-order numbers, shifted by ``offset``) gives
    ``t2``."""
    if not t:
        return []
    left, right = t
    root = offset + tc.nodes(left) + 1
    out = []
    if left:
        a, b = left
        out.append(((a, (b, right)), root, offset + tc.nodes(a) + 1))
    out += [((l2, right), p, c) for l2, p, c in _rotations(left, offset)]
    out += [((left, r2), p, c) for r2, p, c in _rotations(right, root)]
    return out


def tamari_covers(t: tuple) -> tuple:
    """All single rotations moving a left child to the right branch."""
    return tuple(t2 for t2, _, _ in _rotations(t))


@lru_cache(maxsize=None)
def family_poset(family: str, n: int) -> FinitePoset:
    """The order on one graded piece, built from its covers."""
    elements = tc.enumerate_family(family, n)
    return FinitePoset(elements, ORDERS[family][0](elements))


def _rotation_rows(n: int) -> list:
    """The rotations of each tree of degree ``n``, the trees in the order
    of :func:`tc.all_trees`, as triples ``(j, p, c)``: moving node ``p``
    over its left child ``c`` gives ``all_trees(n)[j]``.  The triples come
    in the order of :func:`_rotations`.

    No tree is built or hashed.  In that order a tree ``(L, R)`` of degree
    ``m`` with ``|L| = k`` sits at ``off[m][k] + pos(L) * Cat(m - 1 - k) +
    pos(R)``, where ``off[m][k]`` counts the trees of degree ``m`` with a
    smaller left subtree.  The rows of a degree are built from those of the
    two subtrees, plus the rotation at the root: ``((A, B), R)`` becomes
    ``(A, (B, R))``.
    """
    cat = [len(tc.all_trees(m)) for m in range(n + 1)]
    off = [list(accumulate((cat[k] * cat[m - 1 - k] for k in range(m)),
                           initial=0)) for m in range(n + 1)]
    # each tree (L, R) of degree m as (|L|, position of L, position of R)
    splits = [[(k, lpos, rpos) for k in range(m) for lpos in range(cat[k])
               for rpos in range(cat[m - 1 - k])] for m in range(n + 1)]
    rows = [[[]]]
    for m in range(1, n + 1):
        rows.append([])
        for i, (k, lpos, rpos) in enumerate(splits[m]):
            root, width = k + 1, cat[m - 1 - k]
            row = []
            if k:
                ka, apos, bpos = splits[k][lpos]
                # (A, (B, R)), where (B, R) has degree m - 1 - ka
                br = off[m - 1 - ka][k - 1 - ka] + bpos * width + rpos
                row.append((off[m][ka] + apos * cat[m - 1 - ka] + br,
                            root, ka + 1))
                row += [(off[m][k] + lpos2 * width + rpos, p, c)
                        for lpos2, p, c in rows[k][lpos]]
            row += [(i - rpos + rpos2, p + root, c + root)
                    for rpos2, p, c in rows[m - 1 - k][rpos]]
            rows[m].append(row)
    return rows[n]


def _tamari_succ(trees: Sequence) -> list:
    return [[j for j, _, _ in row]
            for row in _rotation_rows(tc.nodes(trees[0]))]


def _weak_succ(perms: Sequence) -> list:
    # a permutation is a flat tuple, cheap to hash: its covers are looked
    # up in an index of the elements
    index = {w: i for i, w in enumerate(perms)}
    return [[index[v] for v in weak_covers(w)] for w in perms]


def _m_cover_steps(ideal: frozenset, parent: tuple, rotations: list):
    """The covers of ``(t, ideal)`` by the rules of :func:`m_covers`, from
    the parent table and the rotations ``(r, p, c)`` of ``t``: each as
    ``(r, marks, sure)``, over ``t`` itself when ``r`` is None and else over
    the rotation ``r``.  One of the third kind has ``sure`` false, and is a
    cover only when ``marks`` is admissible on its tree."""
    # the marks with a marked child (the root is its own parent)
    held = {parent[u] for u in ideal if parent[u] != u}
    blocked = []  # I - v for the marks v that cannot be dropped alone
    for v in ideal:
        if v in held:
            blocked.append(ideal - {v})
        elif v != 1:
            yield None, ideal - {v}, True
    for r, p, c in rotations:
        if c != 1 and (c in ideal or p not in ideal):
            yield r, ideal, True
        else:
            for marks in blocked:
                yield r, marks, False


def m_covers(b: tc.BiLeveledTree) -> list:
    """The covers of ``b = (t, I)``, each making at most one rotation
    ``t -> t'`` and dropping at most one mark ``v``.  ``(t, I - v)`` and
    ``(t', I)`` are covers when admissible; ``(t', I - v)`` is one when
    admissible and neither of those is, as the interval up to it lies in
    ``{t, t'} x {I, I - v}``.

    The first two kinds are decided by local rules.  ``(t, I - v)`` is
    admissible iff ``v`` is not node 1 and no child of ``v`` is marked:
    only the children of ``v`` lose a marked parent.  Rotating node ``p``
    over its left child ``c`` changes the parents of ``p``, of ``c`` and of
    ``c``'s right child only; ``c`` takes ``p``'s old parent and the right
    child of ``c`` takes ``p``, both marked whenever the moved node is, so
    only ``p``'s new parent ``c`` can break up-closure.  And ``p`` becomes
    the right child of ``c``, which must stay unmarked when ``c`` is node 1
    (a marked ``c`` has a marked parent ``p``).  So ``(t', I)`` is
    admissible iff ``c`` is not node 1 and not (``p`` in ``I`` and ``c``
    not in ``I``).  The third kind keeps a full admissibility test."""
    t = b.tree
    steps = _m_cover_steps(b.ideal, tc.node_parents(t), _rotations(t))
    return [tc.BiLeveledTree(t if t2 is None else t2, marks)
            for t2, marks, sure in steps
            if sure or tc.is_admissible_ideal(t2, marks)]


def _m_succ(elements: Sequence) -> list:
    """:func:`m_covers` of each of a degree's bi-leveled trees, given in
    canonical order, as index lists.  In that order the elements over one
    tree form a block, and the blocks come in the order of
    :func:`tc.all_trees`, which is that of :func:`_rotation_rows`, so a
    cover is found in its tree's block by its mark set."""
    trees, blocks = [], []
    for k, b in enumerate(elements):
        if not trees or b.tree != trees[-1]:
            trees.append(b.tree)
            blocks.append({})
        blocks[-1][b.ideal] = k
    succ = []
    for t, block, rotations in zip(trees, blocks,
                                   _rotation_rows(tc.nodes(trees[0]))):
        parent = tc.node_parents(t)
        for ideal in block:
            # a mark set is admissible on a tree iff it is in its block
            succ.append([(block if r is None else blocks[r])[marks]
                         for r, marks, sure
                         in _m_cover_steps(ideal, parent, rotations)
                         if sure or marks in blocks[r]])
    return succ


ORDERS = {
    # tag: (the covers of a graded piece, given in the canonical order of
    # its generator, as index lists; the closed-form Mobius row of one
    # element or None, which looks its function up when called)
    "S": (_weak_succ, lambda u: weak_mobius_row(u)),
    "Y": (_tamari_succ, None),
    "M": (_m_succ, None),
}


# ---------------------------------------------------------------------------
# Mobius values


def mobius_row_of(family: str, x) -> dict:
    """The nonzero Mobius values ``mu(x, .)`` of a family's order, keyed by
    element: the closed form where :data:`ORDERS` has one, else the row of
    the graded piece's order."""
    closed = ORDERS[family][1]
    if closed is not None:
        return closed(x)
    poset = family_poset(family, tc.FAMILIES[family].degree(x))
    return {poset.elements[j]: mu
            for j, mu in poset.mobius_row(poset.index[x]).items()}


def mobius(family: str, x, y) -> int:
    """Exact Mobius value between two same-degree elements of a family."""
    if ORDERS[family][1] is not None:
        return mobius_row_of(family, x).get(y, 0)
    return family_poset(family, tc.FAMILIES[family].degree(x)).mobius(x, y)


# ---------------------------------------------------------------------------
# verification reports


def interval_retract_verify(n: int) -> dict:
    """Check that the projection from permutations is an interval retract.

    (a) each fiber is an interval of the weak order, (b) the canonical
    section is order-preserving on covers, (c) it is a genuine section.
    """
    violations = []
    section = {}
    for b in tc.enumerate_family("M", n):
        if not is_weak_interval(pj.beta_fiber(b)):
            violations.append(("fiber-not-interval", tc.format_bileveled(b)))
        w = section[b] = pj.iota(b)
        if pj.beta(w) != b:
            violations.append(("not-a-section", tc.format_bileveled(b)))
    mposet = family_poset("M", n)
    for b, c in mposet.covers():
        if not weak_leq(section[b], section[c]):
            violations.append(
                ("section-not-order-preserving",
                 tc.format_bileveled(b), tc.format_bileveled(c)))
    return {"n": n, "ok": not violations, "violations": violations}


def fiberwise_mobius_verify(n: int) -> dict:
    """Check that each Mobius value on bi-leveled trees is the sum of the
    Mobius values between the two fibers, on all pairs.

    One pass over the permutations adds each nonzero ``mu_S(a, v)``, in
    closed form, to the entry ``(beta(a), beta(v))``.  The rows of the
    bi-leveled order itself, by the recursion over its closure, are then
    compared with these sums; pairs missing from both are zero.
    """
    mposet = family_poset("M", n)
    fiber_of = {w: mposet.index[b]
                for b, fiber in pj.beta_fibers(n).items() for w in fiber}
    sums = [{} for _ in mposet.elements]
    for a, x in fiber_of.items():
        acc = sums[x]
        for v, mu in weak_mobius_row(a).items():
            y = fiber_of[v]
            acc[y] = acc.get(y, 0) + mu
    violations = []
    for i, x in enumerate(mposet.elements):
        row = mposet.mobius_row(i)
        for j in sorted(sums[i].keys() | row.keys()):
            lhs, rhs = row.get(j, 0), sums[i].get(j, 0)
            if lhs != rhs:
                violations.append((tc.format_bileveled(x),
                                   tc.format_bileveled(mposet.elements[j]),
                                   lhs, rhs))
    return {"n": n, "ok": not violations, "violations": violations}


def hasse_dot(family: str, n: int) -> str:
    """DOT digraph of the cover relation, edges pointing upward: the nodes,
    and the covers of each, in text order."""
    poset = family_poset(family, n)
    names = [tc.FAMILIES[family].format(x) for x in poset.elements]
    by_name = names.__getitem__
    order = sorted(range(len(names)), key=by_name)
    lines = [f'digraph "{family}{n}" {{']
    lines += [f'  "{names[i]}";' for i in order]
    lines += [f'  "{names[i]}" -> "{names[j]}";'
              for i in order for j in sorted(poset.succ[i], key=by_name)]
    lines.append("}")
    return "\n".join(lines) + "\n"
