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
and pattern avoidance by standardizing every subsequence.
"""

from itertools import combinations
from typing import Iterator, Sequence

from treesym import hopf_algebra as ha
from treesym import posets as po
from treesym import trees_core as tc
from treesym.hopf_algebra import BasisKey, LinComb, F
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
    unit_y = BasisKey("Y", "F", tc.LEAF)
    rows: dict = {}
    for j, b in enumerate(basis):
        image = plus_coaction(F("M", b)) if restricted \
            else ha.coaction_rho(F("M", b))
        for (kb, ky), c in image.terms.items():
            rows.setdefault((kb.element, ky.element), [0] * len(basis))[j] += c
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
        out.append(LinComb({
            BasisKey("M", "F", basis[i]): v
            for i, v in enumerate(ints) if v}))
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
    sig = a.signature()
    if sig is None:
        return LinComb({})
    family = sig[0]
    out: dict = {}
    for key, c in a.terms.items():
        poset = po.family_poset(family, key.degree())
        i = poset.index[key.element]
        mask = poset.up[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            new = BasisKey(family, "M", poset.elements[j])
            out[new] = out.get(new, 0) + c
            mask &= mask - 1
    return LinComb(out)


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
