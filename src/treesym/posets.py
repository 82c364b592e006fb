"""
The three partial orders, their Mobius functions, and interval-retract checks.

* permutations: ``u <= v`` iff the inversion set of ``u`` is contained in
  that of ``v``; covers swap adjacent values ``k, k+1`` appearing in order;
* trees: covers move a child node from the left to the right branch of its
  parent (a rotation); the order is the transitive closure;
* marked trees: ``(s; S) <= (t; T)`` iff ``s <= t`` for trees and ``S >= T``;
  the order is the closure of three kinds of local moves.

:class:`FinitePoset` stores the order relation of a finite poset as bitmask
rows, built from the covers, and computes covers and exact Mobius values
from it.  Chain-counting oracles (used by the test suite to cross-check
Mobius values) live here too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import trees_core as tc

__all__ = [
    "FinitePoset", "family_poset", "inversion_set", "weak_leq", "weak_covers",
    "weak_mobius_row", "tamari_leq", "tamari_covers", "m_leq", "m_covers",
    "m_covers_by_types", "mobius", "chain_sum", "all_chains",
    "chain_sum_meeting_all_blocks", "hall_mobius", "interval_retract_verify",
    "fiberwise_mobius_verify", "hasse_dot",
]


class FinitePoset:
    """A finite poset with precomputed reachability bitmasks.

    ``up[i]`` and ``down[i]`` are the bitmasks of the elements above and
    below ``elements[i]`` (both reflexive).  Built from cover pairs, they are
    the closures of the covers and of the reversed covers; built from
    ``leq``, every pair is tested.  Mobius values are read from sparse rows
    ``mu(x, .)``, each computed on first use, in closed form when
    ``mobius_row`` (an element to ``{element: value}``) is given.
    """

    def __init__(self, elements: Sequence, *, leq: Callable = None,
                 cover_pairs: Iterable[tuple] = None,
                 mobius_row: Callable = None):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        if cover_pairs is not None:
            succ = [[] for _ in range(n)]
            pred = [[] for _ in range(n)]
            for x, y in cover_pairs:
                i, j = self.index[x], self.index[y]
                succ[i].append(j)
                pred[j].append(i)
            self.up = _transitive_closure(succ)
            self.down = _transitive_closure(pred)
            # every cover is one of the given pairs
            self._cover_candidates = [sorted(set(js)) for js in succ]
        elif leq is not None:
            self.up, self.down = [0] * n, [0] * n
            for i, x in enumerate(self.elements):
                for j, y in enumerate(self.elements):
                    if leq(x, y):
                        self.up[i] |= 1 << j
                        self.down[j] |= 1 << i
            self._cover_candidates = None
        else:
            raise ValueError("need either leq or cover_pairs")
        self._row_rule = mobius_row
        self._rows: dict = {}
        self._heights = None
        self._covers = None

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def covers(self) -> tuple:
        """All cover pairs ``(x, y)`` with ``x`` covered by ``y``."""
        if self._covers is None:
            out = []
            for i, x in enumerate(self.elements):
                if self._cover_candidates is not None:
                    above = self._cover_candidates[i]
                else:
                    above = _bits(self.up[i] & ~(1 << i))
                for j in above:
                    if self.up[i] & self.down[j] == (1 << i) | (1 << j):
                        out.append((x, self.elements[j]))
            self._covers = tuple(out)
        return self._covers

    def interval(self, x, y) -> list:
        """Elements ``z`` with ``x <= z <= y``."""
        m = self.up[self.index[x]] & self.down[self.index[y]]
        return [self.elements[j] for j in _bits(m)]

    def is_interval_subset(self, subset) -> bool:
        """Is ``subset`` exactly an interval ``[lo, hi]`` of this poset?"""
        idx = [self.index[x] for x in subset]
        if not idx:
            return False
        mask = 0
        for i in idx:
            mask |= 1 << i
        mins = [i for i in idx if self.down[i] & mask == 1 << i]
        maxs = [i for i in idx if self.up[i] & mask == 1 << i]
        if len(mins) != 1 or len(maxs) != 1:
            return False
        return self.up[mins[0]] & self.down[maxs[0]] == mask

    def mobius(self, x, y) -> int:
        return self._mobius_row(self.index[x]).get(self.index[y], 0)

    def _mobius_row(self, i: int) -> dict:
        """The nonzero values ``mu(elements[i], .)``, keyed by index."""
        row = self._rows.get(i)
        if row is None:
            if self._row_rule is not None:
                row = {self.index[y]: mu
                       for y, mu in self._row_rule(self.elements[i]).items()}
            else:
                row = self._row_from_order(i)
            self._rows[i] = row
        return row

    def _row_from_order(self, i: int) -> dict:
        """``mu(x, y) = -sum of mu(x, z) over x <= z < y``, for ``y`` above
        ``x`` in a linear extension, summing over the nonzero ``z`` only."""
        if self._heights is None:
            # z < y strictly implies fewer elements below z than below y
            self._heights = [m.bit_count() for m in self.down]
        above = _bits(self.up[i] & ~(1 << i))
        above.sort(key=self._heights.__getitem__)
        row = {i: 1}
        support = 1 << i
        for j in above:
            total = sum(row[k] for k in _bits(support & self.down[j]))
            if total:
                row[j] = -total
                support |= 1 << j
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
    return reach


# ---------------------------------------------------------------------------
# the three families


@lru_cache(maxsize=None)
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


def tamari_covers(t: tuple) -> tuple:
    """All single rotations moving a left child to the right branch."""
    out = []
    if not t:
        return ()
    left, right = t
    if left:
        a, b = left
        out.append((a, (b, right)))
    for l2 in tamari_covers(left):
        out.append((l2, right))
    for r2 in tamari_covers(right):
        out.append((left, r2))
    return tuple(out)


@lru_cache(maxsize=None)
def family_poset(family: str, n: int) -> FinitePoset:
    """The order on one graded piece, built from its covers."""
    # The pairs are generated lazily: each candidate is a fresh object,
    # dropped once the poset has mapped it to an index.
    elements = tc.enumerate_family(family, n)
    if family == "S":
        pairs = ((w, v) for w in elements for v in weak_covers(w))
        return FinitePoset(elements, cover_pairs=pairs,
                           mobius_row=weak_mobius_row)
    if family == "Y":
        pairs = ((t, s) for t in elements for s in tamari_covers(t))
        return FinitePoset(elements, cover_pairs=pairs)
    if family == "M":
        return FinitePoset(elements,
                           cover_pairs=_m_cover_pairs(elements, n))
    raise ValueError(f"unknown family {family!r}")


def _m_cover_pairs(elements: tuple, n: int) -> Iterator[tuple]:
    """The candidate covers of every bi-leveled tree, each checked against
    the definition: a bad candidate would add a false relation."""
    ytail = family_poset("Y", n)
    for b in elements:
        for c in m_covers_by_types(b):
            if not (ytail.leq(b.tree, c.tree) and b.ideal >= c.ideal):
                raise RuntimeError(
                    "cover candidate %s -> %s is not a relation" % (
                        tc.format_bileveled(b), tc.format_bileveled(c)))
            yield b, c


def tamari_leq(s: tuple, t: tuple) -> bool:
    if tc.nodes(s) != tc.nodes(t):
        raise ValueError("trees must have the same size")
    return family_poset("Y", tc.nodes(s)).leq(s, t)


def m_leq(b: tc.BiLeveledTree, c: tc.BiLeveledTree) -> bool:
    if tc.nodes(b.tree) != tc.nodes(c.tree):
        raise ValueError("sizes must agree")
    return tamari_leq(b.tree, c.tree) and b.ideal >= c.ideal


def m_covers(b: tc.BiLeveledTree) -> tuple:
    """Covers of ``b``: minimal elements strictly greater than ``b``."""
    poset = family_poset("M", tc.nodes(b.tree))
    return tuple(c for x, c in poset.covers() if x == b)


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

    :func:`family_poset` builds the bi-leveled order as the closure of
    these candidates: (i) rotate inside exactly one component of the forest
    form, mark count unchanged; (ii) rotate the leftmost node across its
    parent -- allowed when the parent has no other marked child -- and
    unmark the parent; (iii) keep the tree, unmark one marked node other
    than the two smallest.  Returns ``{candidate: sorted tuple of types}``
    without filtering by minimality.
    """
    out: dict = {}
    if not b.tree:
        return out

    def add(cand, kind):
        if tc.is_admissible_ideal(cand.tree, cand.ideal):
            out.setdefault(cand, set()).add(kind)

    # type (i): a rotation inside exactly one component of the forest form
    # (the marked upper tree or one lower piece); the mark count is fixed
    t0, forest = tc.forest_form(b)
    for t02 in tamari_covers(t0):
        add(tc.ideal_form(t02, forest), "i")
    for i, piece in enumerate(forest):
        for piece2 in tamari_covers(piece):
            add(tc.ideal_form(t0, forest[:i] + (piece2,) + forest[i + 1:]),
                "i")

    marked = sorted(b.ideal)
    if len(marked) >= 2:
        # (ii): the parent of node 1 is the second-smallest marked node
        parent = dict(tc.node_covers(b.tree))
        p = parent.get(1)
        children_of_p = [c for c, q in tc.node_covers(b.tree) if q == p]
        if p is not None and not any(
                c in b.ideal for c in children_of_p if c != 1):
            add(tc.BiLeveledTree(_rotate_leftmost_node(b.tree),
                                 b.ideal - {p}), "ii")
        # (iii): drop a marked node other than the two smallest
        for v in marked[2:]:
            add(tc.BiLeveledTree(b.tree, b.ideal - {v}), "iii")
    return {cand: tuple(sorted(kinds)) for cand, kinds in out.items()}


# ---------------------------------------------------------------------------
# Mobius values and chain oracles


def mobius(family: str, x, y) -> int:
    """Exact Mobius value between two same-degree elements of a family."""
    if family == "S":
        n = len(x)
    elif family == "Y":
        n = tc.nodes(x)
    else:
        n = tc.nodes(x.tree)
    return family_poset(family, n).mobius(x, y)


def all_chains(poset: FinitePoset) -> Iterator[tuple]:
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


def chain_sum(poset: FinitePoset) -> int:
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


def chain_sum_meeting_all_blocks(poset: FinitePoset, blocks: Sequence[set]) -> int:
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


def hall_mobius(poset: FinitePoset, x, y) -> int:
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


# ---------------------------------------------------------------------------
# verification reports


def interval_retract_verify(n: int) -> dict:
    """Check that the projection from permutations is an interval retract.

    (a) each fiber is an interval of the weak order, (b) the canonical
    section is order-preserving on covers, (c) it is a genuine section.
    """
    from . import projections as pj

    sposet = family_poset("S", n)
    violations = []
    for b in tc.enumerate_family("M", n):
        fiber = pj.beta_fiber(b)
        if not sposet.is_interval_subset(fiber):
            violations.append(("fiber-not-interval", tc.format_bileveled(b)))
        w = pj.iota(b)
        if pj.beta(w) != b:
            violations.append(("not-a-section", tc.format_bileveled(b)))
    mposet = family_poset("M", n)
    for b, c in mposet.covers():
        if not weak_leq(pj.iota(b), pj.iota(c)):
            violations.append(
                ("section-not-order-preserving",
                 tc.format_bileveled(b), tc.format_bileveled(c)))
    return {"n": n, "ok": not violations, "violations": violations}


def fiberwise_mobius_verify(n: int) -> dict:
    """Check that each Mobius value on bi-leveled trees is the sum of the
    Mobius values between the two fibers, on all pairs.

    One pass over the permutations adds each nonzero ``mu_S(a, v)`` to the
    entry ``(beta(a), beta(v))``.  The rows of the bi-leveled order itself
    are then compared with these sums; pairs missing from both are zero.
    """
    from . import projections as pj

    sposet = family_poset("S", n)
    mposet = family_poset("M", n)
    fiber_of = [None] * len(sposet)
    for b, fiber in pj.beta_fibers(n).items():
        for w in fiber:
            fiber_of[sposet.index[w]] = mposet.index[b]
    sums = [{} for _ in mposet.elements]
    for a, x in enumerate(fiber_of):
        acc = sums[x]
        for v, mu in sposet._mobius_row(a).items():
            y = fiber_of[v]
            acc[y] = acc.get(y, 0) + mu
    violations = []
    for i, x in enumerate(mposet.elements):
        for j in sorted(sums[i].keys() | mposet._mobius_row(i).keys()):
            y = mposet.elements[j]
            lhs, rhs = mposet.mobius(x, y), sums[i].get(j, 0)
            if lhs != rhs:
                violations.append(
                    (tc.format_bileveled(x), tc.format_bileveled(y), lhs, rhs))
    return {"n": n, "ok": not violations, "violations": violations}


def hasse_dot(family: str, n: int) -> str:
    """DOT digraph of the cover relation, edges pointing upward."""
    poset = family_poset(family, n)
    lines = [f'digraph "{family}{n}" {{']
    for x in poset.elements:
        lines.append(f'  "{tc.format_element(family, x)}";')
    for x, y in sorted(
            poset.covers(),
            key=lambda p: (tc.format_element(family, p[0]),
                           tc.format_element(family, p[1]))):
        lines.append(
            f'  "{tc.format_element(family, x)}" -> '
            f'"{tc.format_element(family, y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
