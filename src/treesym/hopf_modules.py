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

from functools import lru_cache

from . import hopf_algebra as ha
from . import projections as pj
from . import trees_core as tc
from .hopf_algebra import BasisKey, LinComb, TensorComb, F, Mb
from .trees_core import BiLeveledTree

__all__ = [
    "plus_action", "plus_coaction", "plus_coaction_M_closed",
    "is_indecomposable_bileveled", "is_fiber_top", "is_b_prime",
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
    for ka, ca in a.terms.items():
        if not ka.element.tree:
            raise ValueError("the action is defined on positive degrees only")
        for kh, ch in h.terms.items():
            m = tc.nodes(kh.element)
            # the first part of each forest is nonempty, so the grafted
            # marks never read the base's own (here empty) marks
            base = BiLeveledTree(kh.element, frozenset())
            for forest in tc.restricted_splittings(ka.element, m):
                key = BasisKey("M", "F", tc.graft_bileveled(forest, base))
                out[key] = out.get(key, 0) + ca * ch
    return LinComb(out)


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
    return TensorComb({keys: c for keys, c in ha.rho_M_closed(b).terms.items()
                       if keys[0].element.tree})


# ---------------------------------------------------------------------------
# coinvariant index sets


def is_indecomposable_bileveled(b: BiLeveledTree) -> bool:
    """No nontrivial backslash decomposition: the marks reach the rightmost
    node."""
    n = tc.nodes(b.tree)
    return n > 0 and n in b.ideal


def is_fiber_top(b: BiLeveledTree) -> bool:
    """Is ``b`` the maximal bi-leveled tree over its underlying tree?"""
    return bool(b.tree) and b.ideal == tc.leftmost_branch(b.tree)


def is_b_prime(b: BiLeveledTree) -> bool:
    """Membership in the coinvariant index set of the full structure:
    indecomposable but not a fiber top, or the degree-0 element."""
    if not b.tree:
        return True
    return is_indecomposable_bileveled(b) and not is_fiber_top(b)


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
    indecomposable: prune immediately above the last marked node."""
    if not c.tree:
        raise ValueError("only positive degrees decompose")
    best = None
    for b, s in ha.bileveled_backslash_decompositions(c):
        if best is None or tc.nodes(s) > tc.nodes(best[1]):
            best = (b, s)
    assert best is not None and is_indecomposable_bileveled(best[0])
    return best


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
    if not c.tree:
        return (EMPTY_B, tc.LEAF)
    if is_fiber_top(c):
        return (EMPTY_B, c.tree)
    b, s = b_decompose(c)
    if not is_b_prime(b):
        raise AssertionError("pruned factor should avoid fiber tops here")
    return (b, s)


# ---------------------------------------------------------------------------
# the transported structure on the full space (second basis)


def _tree_M_product_indices(t: tuple, s: tuple) -> dict:
    """Index multiset (with multiplicities) of the second-basis product of
    two trees."""
    prod = ha.to_M(ha.mul_F(ha.to_F(Mb("Y", t)), ha.to_F(Mb("Y", s))))
    return {key.element: c for key, c in prod.terms.items()}


def msym_action_M(bp: BiLeveledTree, t: tuple, s: tuple) -> LinComb:
    """Action on a second-basis vector keyed by ``(bp, t)``: reindex the
    tree-family second-basis product along the extended backslash."""
    out: dict = {}
    for r, c in _tree_M_product_indices(t, s).items():
        key = BasisKey("M", "M", bbslash(bp, r))
        out[key] = out.get(key, 0) + c
    return LinComb(out)


def msym_coaction_M(bp: BiLeveledTree, t: tuple) -> TensorComb:
    """Coaction on a second-basis vector keyed by ``(bp, t)``."""
    out: dict = {}
    for r, s in ha.tree_backslash_decompositions(t):
        keys = (BasisKey("M", "M", bbslash(bp, r)), BasisKey("Y", "M", s))
        out[keys] = out.get(keys, 0) + 1
    return TensorComb(out)


def msym_action_F(a: LinComb, h: LinComb) -> LinComb:
    """The transported action in the fundamental basis: rewrite both factors
    in the second basis, act termwise, and convert back."""
    ha._require(a, "F", families=("M",))
    ha._require(h, "F", families=("Y",))
    out = LinComb({})
    for ka, ca in ha.to_M(a).terms.items():
        bp, t = bbslash_decompose(ka.element)
        for kh, ch in ha.to_M(h).terms.items():
            img = ha.to_F(msym_action_M(bp, t, kh.element))
            out = out + (ca * ch) * img
    return out


# ---------------------------------------------------------------------------
# the final bijection


def _last_component_has_132(w: tuple) -> bool:
    comps = tc.perm_indecomposables(w)
    return bool(comps) and not pj.avoids(comps[-1], (1, 3, 2))


def in_script_s(w: tuple) -> bool:
    """Permutations whose last indecomposable component contains a
    132-pattern, together with the empty permutation."""
    return not w or _last_component_has_132(w)


def _component_in_section_image(c: tuple) -> bool:
    """Is the indecomposable component the section value of a coinvariant
    index (nonempty, not a fiber top)?"""
    b = pj.beta(c)
    return is_b_prime(b) and pj.iota(b) == c


def _initial_run_length(w: tuple) -> int:
    comps = tc.perm_indecomposables(w)
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
    return in_script_s(w) and _initial_run_length(w) % 2 == 0


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
    comps = tc.perm_indecomposables(w)
    first = comps[0]
    rest = w[len(first):]
    return (pj.beta(first), rest)


# ---------------------------------------------------------------------------
# exact coinvariant solves


def coinvariant_kernel(n: int, restricted: bool) -> list:
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
