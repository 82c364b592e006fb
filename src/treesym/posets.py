"""
The three partial orders, their Mobius functions, and interval-retract checks.

* permutations: ``u <= v`` iff the inversion set of ``u`` is contained in
  that of ``v``; covers swap adjacent values ``k, k+1`` appearing in order;
* trees: covers move a child node from the left to the right branch of its
  parent (a rotation); the order is the transitive closure;
* marked trees: ``(s; S) <= (t; T)`` iff ``s <= t`` for trees and ``S >= T``;
  the order is the closure of the candidate covers that make at most one
  rotation and drop at most one mark, each a relation by this definition.

:class:`FinitePoset` stores the order relation of a finite poset as bitmask
rows, built from the covers, and computes covers and exact Mobius values
from it.  :data:`ORDERS` gives each family tag its cover generator and, where
one is known, its closed-form Mobius row.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import projections as pj
from . import trees_core as tc

__all__ = [
    "FinitePoset", "ORDERS", "family_poset", "inversion_set", "weak_leq",
    "weak_covers", "weak_mobius_row", "tamari_covers", "m_cover_candidates",
    "mobius", "interval_retract_verify", "fiberwise_mobius_verify",
    "hasse_dot",
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
        return self.mobius_row(self.index[x]).get(self.index[y], 0)

    def mobius_row(self, i: int) -> dict:
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
    covers, mobius_row = ORDERS[family]
    elements = tc.enumerate_family(family, n)
    # The pairs are generated lazily: each candidate is a fresh object,
    # dropped once the poset has mapped it to an index.
    pairs = ((x, y) for x in elements for y in covers(x))
    return FinitePoset(elements, cover_pairs=pairs, mobius_row=mobius_row)


def m_cover_candidates(b: tc.BiLeveledTree) -> Iterator[tc.BiLeveledTree]:
    """Every admissible ``(t, T) != b`` with ``t`` equal to ``b.tree`` or
    one of its Tamari covers and ``T`` equal to ``b.ideal`` or ``b.ideal``
    less one mark.  Each lies above ``b`` by the definition of the order,
    and every cover of ``b`` is among them."""
    ideals = [b.ideal] + [b.ideal - {v} for v in b.ideal]
    for t in (b.tree,) + tamari_covers(b.tree):
        for ideal in ideals:
            if (t, ideal) != b and tc.is_admissible_ideal(t, ideal):
                yield tc.BiLeveledTree(t, ideal)


ORDERS = {
    # tag: (the covers of one element, or candidates that include them all;
    # its closed-form Mobius row or None)
    "S": (weak_covers, weak_mobius_row),
    "Y": (tamari_covers, None),
    "M": (m_cover_candidates, None),
}


# ---------------------------------------------------------------------------
# Mobius values


def mobius(family: str, x, y) -> int:
    """Exact Mobius value between two same-degree elements of a family."""
    return family_poset(family, tc.FAMILIES[family].degree(x)).mobius(x, y)


# ---------------------------------------------------------------------------
# verification reports


def interval_retract_verify(n: int) -> dict:
    """Check that the projection from permutations is an interval retract.

    (a) each fiber is an interval of the weak order, (b) the canonical
    section is order-preserving on covers, (c) it is a genuine section.
    """
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
    sposet = family_poset("S", n)
    mposet = family_poset("M", n)
    fiber_of = [None] * len(sposet)
    for b, fiber in pj.beta_fibers(n).items():
        for w in fiber:
            fiber_of[sposet.index[w]] = mposet.index[b]
    sums = [{} for _ in mposet.elements]
    for a, x in enumerate(fiber_of):
        acc = sums[x]
        for v, mu in sposet.mobius_row(a).items():
            y = fiber_of[v]
            acc[y] = acc.get(y, 0) + mu
    violations = []
    for i, x in enumerate(mposet.elements):
        for j in sorted(sums[i].keys() | mposet.mobius_row(i).keys()):
            y = mposet.elements[j]
            lhs, rhs = mposet.mobius(x, y), sums[i].get(j, 0)
            if lhs != rhs:
                violations.append(
                    (tc.format_bileveled(x), tc.format_bileveled(y), lhs, rhs))
    return {"n": n, "ok": not violations, "violations": violations}


def hasse_dot(family: str, n: int) -> str:
    """DOT digraph of the cover relation, edges pointing upward."""
    poset = family_poset(family, n)
    fmt = tc.FAMILIES[family].format
    lines = [f'digraph "{family}{n}" {{']
    for x in poset.elements:
        lines.append(f'  "{fmt(x)}";')
    for x, y in sorted(poset.covers(),
                       key=lambda p: (fmt(p[0]), fmt(p[1]))):
        lines.append(f'  "{fmt(x)}" -> "{fmt(y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
