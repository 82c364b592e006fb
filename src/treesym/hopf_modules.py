"""Module and comodule structures of the bi-leveled family over the trees.

Two structures are implemented:

* the positively graded part with restricted splittings: an action of trees
  on nonempty bi-leveled trees and a compatible coaction, whose coinvariants
  are spanned by the second-basis vectors of the indecomposable bi-leveled
  trees (those whose marks include the rightmost node);
* the full space, transported along the extended backslash operation that
  sends the empty left factor to the top of a projection fiber; its
  coinvariants are indexed by the indecomposables that are not fiber tops.

The final bijection pairs these coinvariant index sets with permutations
whose last indecomposable component contains a 132-pattern, establishing the
nonnegativity of one quotient of enumerating series.

The ``*_verify`` functions check these structures in one total degree each
and return a report ``{"n", "ok", "violations"}``; the ``verify`` suites of
the command line run them degree by degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import hopf_algebra as ha
from . import projections as pj
from . import trees_core as tc
from .hopf_algebra import LinComb, TensorComb, F, Mb
from .trees_core import BiLeveledTree

__all__ = [
    "plus_action", "plus_coaction", "plus_coaction_M_closed",
    "is_indecomposable_bileveled", "is_b_prime",
    "b_basis", "b_prime_basis", "b_decompose",
    "bbslash", "bbslash_decompose",
    "msym_action_M", "msym_coaction_M",
    "in_script_s", "in_script_s_prime", "script_s", "script_s_prime",
    "kappa", "kappa_inverse",
    "coinvariant_kernel", "EMPTY_B",
    "plus_module_verify", "bbslash_verify", "coinvariants_verify",
    "kappa_verify",
]

EMPTY_B = tc.FAMILIES["M"].empty


# ---------------------------------------------------------------------------
# the positively graded part: restricted splittings


def plus_action(a: LinComb, h: LinComb) -> LinComb:
    """Action of trees on nonempty bi-leveled trees: split the bi-leveled
    factor with a nonempty first part, graft onto the tree; grafted marks
    absorb every node of the tree."""
    ha._require(a, "F", families=("M",))
    ha._require(h, "F", families=("Y",))
    out: dict = {}
    for b, ca in a.terms.items():
        if not b.tree:
            raise ValueError("the action is defined on positive degrees only")
        for t, ch in h.terms.items():
            m = tc.nodes(t)
            # the first part of each forest is nonempty, so the grafted
            # marks never read the base's own (here empty) marks
            base = BiLeveledTree(t, frozenset())
            for forest in tc.restricted_splittings(b, m):
                c = tc.graft_bileveled(forest, base)
                out[c] = out.get(c, 0) + ca * ch
    return LinComb("M", "F", out)


def plus_coaction(a: LinComb) -> TensorComb:
    """Coaction with restricted splittings: the first part keeps its marks
    and must be nonempty, the second part forgets them.  Defined on positive
    degrees only."""
    return ha.split_coaction(a, lambda b: tc.restricted_splittings(b, 1))


def plus_coaction_M_closed(b: BiLeveledTree) -> TensorComb:
    """The restricted coaction of one second-basis vector: a sum over all
    two-factor backslash decompositions, that is the closed full coaction
    without its exceptional term (the one with an empty first factor)."""
    if not b.tree:
        raise ValueError("the coaction is defined on positive degrees only")
    return TensorComb(("M", "Y"), "M", {
        keys: c for keys, c in ha.rho_M_closed(b).terms.items()
        if keys[0].tree})


# ---------------------------------------------------------------------------
# coinvariant index sets


def is_indecomposable_bileveled(b: BiLeveledTree) -> bool:
    """No nontrivial backslash decomposition: the marks reach the rightmost
    node."""
    n = tc.nodes(b.tree)
    return n > 0 and n in b.ideal


def is_b_prime(b: BiLeveledTree) -> bool:
    """Membership in the coinvariant index set of the full structure:
    indecomposable but not a fiber top, or the degree-0 element."""
    if not b.tree:
        return True
    return is_indecomposable_bileveled(b) and not pj.is_fiber_top(b)


@lru_cache(maxsize=None)
def b_basis(n: int) -> tuple:
    """Indecomposable bi-leveled trees with ``n`` nodes."""
    return tuple(
        b for b in tc.enumerate_family("M", n) if is_indecomposable_bileveled(b))


@lru_cache(maxsize=None)
def b_prime_basis(n: int) -> tuple:
    return tuple(b for b in tc.enumerate_family("M", n) if is_b_prime(b))


def b_decompose(c: BiLeveledTree):
    """Write a nonempty bi-leveled tree as ``b`` over ``s`` with ``b``
    indecomposable: its first decomposition, cut immediately above the last
    marked node."""
    if not c.tree:
        raise ValueError("only positive degrees decompose")
    b, s = tc.bileveled_backslash_decompositions(c)[0]
    assert is_indecomposable_bileveled(b)
    return b, s


# ---------------------------------------------------------------------------
# the extended backslash


def bbslash(bp: BiLeveledTree, t: tuple) -> BiLeveledTree:
    """Extended backslash: the empty left factor yields the fiber top of
    ``t``; otherwise graft ``t`` on the rightmost leaf, keeping the marks."""
    if not is_b_prime(bp):
        raise ValueError("left factor must be in the coinvariant index set")
    if not bp.tree:
        return pj.beta_max(t)
    return tc.tree_backslash_bileveled(bp, t)


def bbslash_decompose(c: BiLeveledTree):
    """Inverse of :func:`bbslash`; every bi-leveled tree splits uniquely."""
    if pj.is_fiber_top(c):
        return (EMPTY_B, c.tree)
    b, s = b_decompose(c)
    if not is_b_prime(b):
        raise AssertionError("pruned factor should avoid fiber tops here")
    return (b, s)


# ---------------------------------------------------------------------------
# the transported structure on the full space (second basis)


def msym_action_M(bp: BiLeveledTree, t: tuple, s: tuple) -> LinComb:
    """Action on a second-basis vector keyed by ``(bp, t)``: reindex the
    tree-family second-basis product along the extended backslash."""
    out: dict = {}
    for r, c in ha.tree_product_M(t, s).items():
        b = bbslash(bp, r)
        out[b] = out.get(b, 0) + c
    return LinComb("M", "M", out)


def msym_coaction_M(bp: BiLeveledTree, t: tuple) -> TensorComb:
    """Coaction on a second-basis vector keyed by ``(bp, t)``."""
    out: dict = {}
    for r, s in tc.tree_backslash_decompositions(t):
        keys = (bbslash(bp, r), s)
        out[keys] = out.get(keys, 0) + 1
    return TensorComb(("M", "Y"), "M", out)


def msym_action_F(a: LinComb, h: LinComb) -> LinComb:
    """The transported action in the fundamental basis: rewrite both factors
    in the second basis, act termwise, and convert back."""
    ha._require(a, "F", families=("M",))
    ha._require(h, "F", families=("Y",))
    out: dict = {}
    for x, ca in ha.to_M(a).terms.items():
        bp, t = bbslash_decompose(x)
        for s, ch in ha.to_M(h).terms.items():
            for y, c in ha.to_F(msym_action_M(bp, t, s)).terms.items():
                out[y] = out.get(y, 0) + ca * ch * c
    return LinComb("M", "F", out)


# ---------------------------------------------------------------------------
# the final bijection


def _last_has_132(comps: tuple) -> bool:
    """Does the last component contain a 132-pattern, or are there none?"""
    return not comps or not pj.avoids_132(comps[-1])


def in_script_s(w: tuple) -> bool:
    """Permutations whose last indecomposable component contains a
    132-pattern, together with the empty permutation."""
    return _last_has_132(tc.perm_indecomposables(w))


def _component_in_section_image(c: tuple) -> bool:
    """Is the indecomposable component the section value of a coinvariant
    index (nonempty, not a fiber top)?"""
    b = pj.beta(c)
    return is_b_prime(b) and pj.iota(b) == c


def _initial_run_length(comps: tuple) -> int:
    length = 0
    for c in comps:
        if _component_in_section_image(c):
            length += 1
        else:
            break
    return length


def in_script_s_prime(w: tuple) -> bool:
    """Members of the big index set whose maximal initial run of components
    lying in the section image has even length."""
    comps = tc.perm_indecomposables(w)
    return _last_has_132(comps) and _initial_run_length(comps) % 2 == 0


@lru_cache(maxsize=None)
def script_s(n: int) -> tuple:
    return tuple(w for w in tc.enumerate_family("S", n) if in_script_s(w))


@lru_cache(maxsize=None)
def script_s_prime(n: int) -> tuple:
    return tuple(
        w for w in tc.enumerate_family("S", n) if in_script_s_prime(w))


def kappa(bp: BiLeveledTree, v: tuple) -> tuple:
    """The graded bijection: prepend the section value of ``bp``."""
    if not is_b_prime(bp):
        raise ValueError("left argument must be a coinvariant index")
    if not in_script_s_prime(v):
        raise ValueError("right argument must lie in the restricted set")
    u = pj.iota(bp)
    return tuple(a + len(v) for a in u) + v


def kappa_inverse(w: tuple):
    if not in_script_s(w):
        raise ValueError("argument must lie in the big index set")
    if in_script_s_prime(w):
        return (EMPTY_B, w)
    # split off the first indecomposable component
    first, rest = tc.perm_backslash_decompositions(w)[1]
    return (pj.beta(first), rest)


# ---------------------------------------------------------------------------
# exact coinvariant solves


def coinvariant_kernel(n: int, restricted: bool) -> list:
    """Basis of the coinvariants in degree ``n``, by an exact kernel solve.

    Solves ``coaction(x) = x (x) 1`` over the rationals in the fundamental
    basis, using the restricted coaction when ``restricted`` is true.  Each
    free column of the reduced row echelon form gives one vector, in
    increasing column order: 1 at the free column and minus the pivot rows'
    entries there, scaled to integers by the lcm of their denominators.
    Returns a list of fundamental-basis combinations with integer entries.
    """
    if restricted and n == 0:
        return []
    basis = tc.enumerate_family("M", n)
    rows: dict = {}
    for j, b in enumerate(basis):
        image = plus_coaction(F("M", b)) if restricted \
            else ha.coaction_rho(F("M", b))
        for keys, c in image.terms.items():
            row = rows.setdefault(keys, {})
            row[j] = row.get(j, 0) + c
        # subtract x (x) 1
        row = rows.setdefault((b, tc.LEAF), {})
        row[j] = row.get(j, 0) - 1
    pivots = _echelon(rows.values())
    pivots_by_free: dict = {}
    for p, row in pivots.items():
        for c in row:
            if c != p:
                pivots_by_free.setdefault(c, []).append(p)
    out = []
    for f in range(len(basis)):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for p in pivots_by_free.get(f, ()):
            vec[p] = Fraction(-pivots[p][f], pivots[p][p])
        denom = math.lcm(*(v.denominator for v in vec.values()))
        out.append(LinComb("M", "F", {basis[i]: int(vec[i] * denom)
                                      for i in sorted(vec)}))
    return out


def _echelon(rows) -> dict:
    """The reduced row echelon form of sparse integer rows ``{column:
    value}``, each row scaled to coprime integers: ``{pivot column: row}``
    with a positive entry at the pivot and none at any other pivot column.
    Only integer row operations are used; dividing each row by its pivot
    entry gives the form over the rationals."""
    pivots: dict = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = _primitive(row, row[lead])
                break
            row = _eliminate(row, pivots[lead], lead)
    # a pivot row right of ``p`` is already reduced, so clearing its column
    # from row ``p`` brings in no other pivot column
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for c in [c for c in row if c != p and c in pivots]:
            row = _eliminate(row, pivots[c], c)
        pivots[p] = row
    return pivots


def _eliminate(row: dict, prow: dict, col: int) -> dict:
    """``prow[col] * row - row[col] * prow``, which is 0 at ``col``, made
    primitive with the sign kept."""
    a, b = prow[col], row[col]
    if a != 1:
        row = {c: a * x for c, x in row.items()}
    for c, x in prow.items():
        y = row.get(c, 0) - b * x
        if y:
            row[c] = y
        else:
            del row[c]
    return _primitive(row, 1) if row else row


def _primitive(row: dict, sign: int) -> dict:
    """``row`` divided by the gcd of its entries, negated when ``sign`` is
    negative."""
    g = math.gcd(*row.values())
    if sign < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


# ---------------------------------------------------------------------------
# verification reports, one total degree each


def plus_module_verify(n: int) -> dict:
    """Check the restricted Hopf-module law on every pair of a bi-leveled
    tree of positive degree and a tree, of total degree ``n``."""
    violations = []
    for n1 in range(1, n + 1):
        for b in tc.all_bileveled(n1):
            fb = F("M", b)
            coact = plus_coaction(fb)
            for t in tc.all_trees(n - n1):
                ft = F("Y", t)
                lhs = plus_coaction(plus_action(fb, ft))
                rhs = ha.tensor_mul(
                    coact, ha.comul_F(ft), plus_action, ha.mul_F)
                if lhs != rhs:
                    violations.append(
                        (tc.format_bileveled(b), tc.format_tree(t)))
    return {"n": n, "ok": not violations, "violations": violations}


def bbslash_verify(n: int) -> dict:
    """Check the transported structure in total degree ``n``: the action of
    a tree on a bi-leveled tree, computed in the fundamental basis, is the
    reindexed tree product in the second basis; and the coaction of each
    bi-leveled tree of degree ``n`` is its closed form."""
    violations = []
    for n1 in range(n + 1):
        for b in tc.all_bileveled(n1):
            bp, t = bbslash_decompose(b)
            fb = ha.to_F(Mb("M", b))
            for s in tc.all_trees(n - n1):
                lhs = ha.to_M(msym_action_F(fb, ha.to_F(Mb("Y", s))))
                if lhs != msym_action_M(bp, t, s):
                    violations.append(
                        (tc.format_bileveled(b), tc.format_tree(s)))
            if n1 == n and msym_coaction_M(bp, t) != ha.rho_M_closed(b):
                violations.append(tc.format_bileveled(b))
    return {"n": n, "ok": not violations, "violations": violations}


def coinvariants_verify(n: int) -> dict:
    """Check that the coinvariants in degree ``n``, solved exactly, have
    the dimensions of the stated index sets, for the restricted and the
    full coaction."""
    violations = []
    if len(coinvariant_kernel(n, restricted=True)) != len(b_basis(n)):
        violations.append(("restricted", n))
    if len(coinvariant_kernel(n, restricted=False)) != len(b_prime_basis(n)):
        violations.append(("full", n))
    return {"n": n, "ok": not violations, "violations": violations}


def kappa_verify(n: int) -> dict:
    """Check that ``kappa`` maps the pairs of total degree ``n`` one to one
    onto the big index set, and that ``kappa_inverse`` undoes it."""
    target = set(script_s(n))
    built: dict = {}
    violations = []
    for j in range(n + 1):
        for bp in b_prime_basis(j):
            for v in script_s_prime(n - j):
                u = kappa(bp, v)
                if u in built or u not in target:
                    violations.append(tc.format_perm(u))
                else:
                    built[u] = (bp, v)
    violations += [tc.format_perm(u) for u in sorted(target - set(built))]
    for u, pair in built.items():
        if kappa_inverse(u) != pair:
            violations.append(tc.format_perm(u))
    return {"n": n, "ok": not violations, "violations": violations}
