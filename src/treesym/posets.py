"""
The three partial orders, their Mobius functions, and interval-retract checks.

* permutations: ``u <= v`` iff the inversion set of ``u`` is contained in
  that of ``v``; covers swap adjacent values ``k, k+1`` appearing in order;
* trees: covers move a child node from the left to the right branch of its
  parent (a rotation); the order is the transitive closure;
* marked trees: ``(s; S) <= (t; T)`` iff ``s <= t`` for trees and ``S >= T``;
  a cover makes at most one rotation and drops at most one mark, and is
  admissible iff its mark set is in its tree's block of elements.

:class:`FinitePoset` is built from the elements of a finite poset and, for
each, the list of the indices of its covers, and builds its order relation,
as bitmask rows of up-sets, the first time something reads it, in one
pass: in the canonical order of a family, its generator's, every element
comes after its covers.  :data:`ORDERS` gives each family tag the builder
of those index lists for a graded piece and, where one is known, its
closed-form Mobius row.  The Tamari and bi-leveled builders build no
cover as an element: a tree's rotations are found by position in the
canonical order, and a bi-leveled cover of every kind by its mark set
in its tree's block of elements.  :func:`hasse_dot` sorts by text where
it prints.
Mobius rows with no closed form are computed by Rota's crosscut theorem,
on orders checked to be lattices, where they are read, and not kept.
:func:`mobius_row_of` reads a Mobius row by element, in closed form where
there is one, so an order is built only where its covers or its closure
are read.  The weak order's closed form walks the submasks of a
permutation's ascent mask through a per-degree table of value maps.
:func:`interval_retract_verify` tests the weak order on inversion
bitmasks, one bit per pair of positions; :func:`fiberwise_mobius_verify`
reads :func:`weak_mobius_row` and a fiber map.  No command calls
:func:`weak_leq` or :func:`inversion_set`: the tracer counts ``weak_leq``,
and the tests use both as the definition of the weak order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from . import projections as pj
from . import trees_core as tc

__all__ = [
    "FinitePoset", "ORDERS", "family_poset", "inversion_set", "weak_leq",
    "weak_covers", "weak_mobius_row", "is_weak_interval", "mobius_row_of",
    "mobius", "interval_retract_verify", "fiberwise_mobius_verify",
    "hasse_dot",
]


class FinitePoset:
    """A finite poset given by its elements and its cover relation.

    ``succ[i]`` lists the indices of the elements covering ``elements[i]``,
    each smaller than ``i``.  ``up[i]``, the bitmask of the elements above
    ``elements[i]`` (reflexive), is built on first read in one pass in
    index order, as is ``index``, the position of each element.  A sparse
    Mobius row ``mu(x, .)`` is computed by the crosscut theorem each time
    it is read, and is not kept; a single value ``mu(x, y)`` from the
    covers of ``x`` below ``y`` only.
    """

    def __init__(self, elements: Sequence, succ: list):
        self.elements = tuple(elements)
        self.succ = succ

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def up(self) -> list:
        up = []
        for i, js in enumerate(self.succ):
            mask = 1 << i
            for j in js:
                if j >= i:
                    raise ValueError("a cover must come before its element")
                mask |= up[j]
            up.append(mask)
        return up

    @cached_property
    def _join(self) -> dict:
        """The index of each element keyed by its up-set, once the order is
        checked to be a lattice: it has a least element, and any two covers
        of one element have a join, keyed by the AND of their up-sets.  The
        second makes covers locally confluent, so from the least element
        (Newman's lemma) there is one maximal element, and a bounded order
        with the second is a lattice (Bjorner-Edelman-Ziegler, Lemma 2.1).
        Any join is then keyed by the AND of the up-sets joined."""
        up = self.up
        join = {mask: i for i, mask in enumerate(up)}
        if (1 << len(up)) - 1 not in join or any(
                up[a] & up[b] not in join
                for js in self.succ for a, b in combinations(js, 2)):
            raise ValueError("the order is not a lattice")
        return join

    def above(self, x) -> list:
        """The elements ``y >= x``, in index order."""
        return [self.elements[j] for j in _bits(self.up[self.index[x]])]

    def mobius(self, x, y) -> int:
        i, j = self.index[x], self.index[y]
        below = [c for c in self.succ[i] if self.up[c] >> j & 1]
        return self._crosscut(i, below).get(j, 0)

    def mobius_row(self, i: int) -> dict:
        """The nonzero values ``mu(elements[i], .)``, keyed by index."""
        return self._crosscut(i, self.succ[i])

    def _crosscut(self, i: int, covers: Sequence) -> dict:
        """The nonzero ``mu(x, y)`` for ``x = elements[i]`` by Rota's crosscut
        theorem: the sum of ``(-1)**len(A)`` over the sets ``A`` of these
        covers of ``x`` whose join is ``y`` (that of none is ``x``).  Each
        cover is joined to the join of each set so far, by an AND and a
        :attr:`_join` lookup, keeping one coefficient per join."""
        up, join = self.up, self._join
        row = {i: 1}
        for c in covers:
            above = up[c]
            step = row.copy()
            for j, v in row.items():
                k = join[up[j] & above]
                step[k] = step.get(k, 0) - v
            row = {j: v for j, v in step.items() if v}
        return row


# the positions of the set bits of each byte value
_BYTE_BITS = [tuple(k for k in range(8) if byte >> k & 1)
              for byte in range(256)]


def _bits(mask: int) -> list:
    """Positions of the set bits of ``mask``, in increasing order: the
    bytes of ``mask`` read through :data:`_BYTE_BITS`, with no step that
    costs the width of the mask."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [base + k for base, byte in zip(range(0, 8 * len(data), 8), data)
            if byte for k in _BYTE_BITS[byte]]


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
    pos = _positions(w)
    out = []
    for k in range(1, len(w)):
        i, j = pos[k], pos[k + 1]
        if i < j:
            lst = list(w)
            lst[i], lst[j] = k + 1, k
            out.append(tuple(lst))
    return tuple(out)


def weak_mobius_row(u: tuple) -> dict:
    """The nonzero Mobius values ``mu(u, .)`` of the weak order, in closed
    form (Aguiar-Sottile, Adv. Math. 191, 2005).

    ``mu(u, v) = (-1)**len(J)`` when ``J`` is a set of values ``k`` with
    ``k`` before ``k+1`` in ``u`` and ``v`` is ``u`` with each block of
    consecutive values joined by ``J`` reversed; otherwise ``mu(u, v) = 0``.
    The sets ``J`` are the submasks of the ascent mask of ``u``, each
    looked up in the table of :func:`_block_reversals`.
    """
    n = len(u)
    pos = _positions(u)
    ascents = 0
    for k in range(1, n):
        if pos[k] < pos[k + 1]:
            ascents |= 1 << (k - 1)
    table = _block_reversals(n)
    row = {}
    J = ascents
    while True:
        image, sign = table[J]
        row[tuple(map(image.__getitem__, u))] = sign
        if not J:
            return row
        J = (J - 1) & ascents


@lru_cache(maxsize=None)
def _block_reversals(n: int) -> list:
    """For each set ``J`` of the values ``1..n-1``, at the index with bit
    ``k - 1`` set for each ``k`` in ``J``: the map of the values ``0..n``
    that reverses each block of consecutive values joined by ``J``, and
    ``(-1)**len(J)``."""
    table = []
    for J in range(1 << max(n - 1, 0)):
        image = list(range(n + 1))
        k = 1
        while k < n:
            if J >> (k - 1) & 1:
                lo = k
                while k < n and J >> (k - 1) & 1:
                    k += 1
                # the values lo..k, joined by lo..k-1
                image[lo:k + 1] = range(k, lo - 1, -1)
            k += 1
        table.append((tuple(image), -1 if J.bit_count() % 2 else 1))
    return table


def _positions(w: tuple) -> list:
    """The position of each value of ``w``, from 0, indexed by value."""
    pos = [0] * (len(w) + 1)
    for i, a in enumerate(w):
        pos[a] = i
    return pos


def _inversion_mask(w: tuple) -> int:
    """The inversion set of ``w`` as an int: bit ``i * n + j`` is set when
    the positions ``i < j``, from 0, hold ``w[i] > w[j]``.  The values are
    read upward, with the positions of the smaller ones as a bitmask, so
    row ``i`` is that bitmask above ``i`` when ``w[i]`` is read."""
    n = len(w)
    pos = _positions(w)
    mask = below = 0
    for i in pos[1:]:
        mask |= below >> (i + 1) << (i * (n + 1) + 1)
        below |= 1 << i
    return mask


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
    is an inversion of ``hi``.  Inversion sets are the bitmasks of
    :func:`_inversion_mask`, and a permutation is known by its mask, so
    a cover is looked up among the members as its member's mask with the
    one bit added.
    """
    members = {_inversion_mask(w): w for w in perms}
    if not members:
        return False
    bottom = min(members, key=int.bit_count)
    top = max(members, key=int.bit_count)
    if any(bottom & ~m or m & ~top for m in members):
        return False
    for m, w in members.items():
        n = len(w)
        pos = _positions(w)
        for k in range(1, n):
            i, j = pos[k], pos[k + 1]
            if i < j:
                bit = 1 << (i * n + j)
                if top & bit and m | bit not in members:
                    return False
    return True


@lru_cache(maxsize=None)
def family_poset(family: str, n: int) -> FinitePoset:
    """The order on one graded piece, built from its covers."""
    elements = tc.enumerate_family(family, n)
    return FinitePoset(elements, ORDERS[family][0](elements))


def _rotation_rows(n: int) -> list:
    """The rotations of each tree of degree ``n``, the trees in the order
    of :func:`tc.all_trees`, as the indices of the rotated trees in that
    order: a tree's row is its list of Tamari covers.  A tree's rotations
    come in this order: the one at its root, then those inside its left
    subtree, then those inside its right subtree.

    No tree is built or hashed.  In that order a tree ``(L, R)`` of degree
    ``m`` with ``|L| = k`` sits at ``off[m][k] + pos(L) * Cat(m - 1 - k) +
    pos(R)``, where ``off[m][k]`` counts the trees of degree ``m`` with a
    smaller left subtree.  The rows of a degree are built from those of the
    two subtrees, plus the rotation at the root: ``((A, B), R)`` becomes
    ``(A, (B, R))``.  It stays arithmetic: recursing over the rotated trees
    themselves, found by a dict, gave the same rows but slower builds at
    degrees 1..7 (Y 2 -> 5 ms, M 10 -> 15 ms, ``queries`` 6 % slower).
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
            width = cat[m - 1 - k]
            row = []
            if k:
                ka, apos, bpos = splits[k][lpos]
                # (A, (B, R)), where (B, R) has degree m - 1 - ka
                br = off[m - 1 - ka][k - 1 - ka] + bpos * width + rpos
                row.append(off[m][ka] + apos * cat[m - 1 - ka] + br)
                row += [off[m][k] + lpos2 * width + rpos
                        for lpos2 in rows[k][lpos]]
            row += [i - rpos + rpos2 for rpos2 in rows[m - 1 - k][rpos]]
            rows[m].append(row)
    return rows[n]


def _tamari_succ(trees: Sequence) -> list:
    return _rotation_rows(tc.nodes(trees[0]))


def _weak_succ(perms: Sequence) -> list:
    # a permutation is a flat tuple, cheap to hash: its covers are looked
    # up in an index of the elements
    index = {w: i for i, w in enumerate(perms)}
    return [[index[v] for v in weak_covers(w)] for w in perms]


def _m_cover_steps(ideal: frozenset, block: dict, blocks: list,
                   rotations: list):
    """The covers of ``(t, ideal)`` as ``(index, kind)``, from the block of
    ``t``, the blocks of every tree and the rotations of ``t``: a block
    maps each mark set admissible on its tree to its element's index.

    A cover of ``(t, I)`` makes at most one rotation ``t -> t'`` and drops
    at most one mark ``v``.  Kind 1, ``(t, I - v)``, and kind 2,
    ``(t', I)``, are covers when admissible; kind 3, ``(t', I - v)``, is
    one when admissible and neither of those is, as the interval up to it
    lies in ``{t, t'} x {I, I - v}``.  Each is decided by looking its mark
    set up in its tree's block."""
    blocked = []  # I - v for the marks v that cannot be dropped alone
    for v in ideal:
        marks = ideal - {v}
        j = block.get(marks)
        if j is None:
            blocked.append(marks)
        else:
            yield j, 1
    for r in rotations:
        rotated = blocks[r]
        j = rotated.get(ideal)
        if j is not None:
            yield j, 2
        else:
            for marks in blocked:
                j = rotated.get(marks)
                if j is not None:
                    yield j, 3


def _m_succ(elements: Sequence) -> list:
    """The covers of each of a degree's bi-leveled trees, given in
    canonical order, by :func:`_m_cover_steps`, as index lists.  In that
    order the elements over one tree form a block, and the blocks come in
    the order of :func:`tc.all_trees`, which is that of
    :func:`_rotation_rows`; a mark set is admissible on a tree iff it is
    in its block."""
    blocks, tree = [], None
    for k, b in enumerate(elements):
        if b.tree != tree:
            tree = b.tree
            blocks.append({})
        blocks[-1][b.ideal] = k
    return [[j for j, _ in _m_cover_steps(ideal, block, blocks, rotations)]
            for block, rotations in zip(
                blocks, _rotation_rows(tc.nodes(elements[0].tree)))
            for ideal in block]


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
    section is order-preserving on covers, (c) it is a genuine section,
    (d) ``beta`` is a map of orders onto the covers: each weak cover that
    leaves its fiber lands on a cover of the bi-leveled order, and each
    such cover is reached by a weak cover.  A permutation belongs to the
    last fiber that lists it.
    """
    violations = []
    mposet = family_poset("M", n)
    masks = []  # the inversion mask of each section value
    fiber_of = {}  # each permutation's element index
    for i, b in enumerate(mposet.elements):
        fiber = pj.beta_fiber(b)
        if not is_weak_interval(fiber):
            violations.append(("fiber-not-interval", tc.format_bileveled(b)))
        fiber_of.update(dict.fromkeys(fiber, i))
        w = pj.iota(b)
        if pj.beta(w) != b:
            violations.append(("not-a-section", tc.format_bileveled(b)))
        masks.append(_inversion_mask(w))
    reached = set()
    for w, i in fiber_of.items():
        for v in weak_covers(w):
            j = fiber_of.get(v)
            if j == i:
                continue
            if j in mposet.succ[i]:
                reached.add((i, j))
            else:
                violations.append(("projection-not-order-preserving",
                                   tc.format_perm(w), tc.format_perm(v)))

    def name(i):
        return tc.format_bileveled(mposet.elements[i])

    for i, js in enumerate(mposet.succ):
        for j in sorted(js):
            if masks[i] & ~masks[j]:
                violations.append(
                    ("section-not-order-preserving", name(i), name(j)))
            if (i, j) not in reached:
                violations.append(("cover-not-reached", name(i), name(j)))
    return {"n": n, "ok": not violations, "violations": violations}


def fiberwise_mobius_verify(n: int) -> dict:
    """Check that each Mobius value on bi-leveled trees is the sum of the
    Mobius values between the two fibers, on all pairs.

    One pass over the permutations adds each nonzero ``mu_S(a, v)``, in
    closed form, to the entry ``(beta(a), beta(v))``.  The rows of the
    bi-leveled order itself, unless it is not a lattice (the one violation
    then), are compared with these sums; pairs missing from both are zero.
    """
    mposet = family_poset("M", n)
    mposet.up  # a cover listed after its element raises here
    try:
        mposet._join
    except ValueError:
        return {"n": n, "ok": False, "violations": [("not-a-lattice", n)]}
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
