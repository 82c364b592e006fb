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
the command line run them degree by degree.  The coinvariant report reads
each index set off an exact elimination, as the columns without a pivot.
The two Hopf-module reports read the image of each basis element from a
:class:`LawImages`, which numbers the elements of each family and keeps
each image as a map of term number and coefficient; they add both sides
of each law into such maps and compare these without their zero
coefficients.  A ``verify`` run passes one such object to each of its
degrees, so an image of a lower degree is computed once per run, and
drops it when the run ends.
"""

from __future__ import annotations

import math
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
    "in_script_s", "script_s_prime",
    "kappa", "kappa_inverse",
    "coinvariant_kernel", "EMPTY_B",
    "LawImages", "plus_module_verify", "bbslash_verify",
    "coinvariants_verify",
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
    ha._require(a, "F", families=("M",))
    if any(not b.tree for b in a.terms):
        raise ValueError("the coaction is defined on positive degrees only")
    return ha.split_coaction(a, 1)


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
    return BiLeveledTree(tc.backslash(bp.tree, t), bp.ideal)


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


def _last_has_132(w: tuple, cuts: list) -> bool:
    """Does the last component of ``w``, the piece between its last two
    ``cuts``, contain a 132-pattern, or has ``w`` none?  The piece is read
    as it stands: containment depends on relative order only."""
    return len(cuts) == 1 or not pj.avoids_132(w[cuts[-2]:cuts[-1]])


def in_script_s(w: tuple) -> bool:
    """Permutations whose last indecomposable component contains a
    132-pattern, together with the empty permutation."""
    return _last_has_132(w, tc._perm_cuts(w))


@lru_cache(maxsize=None)
def _sections(k: int) -> tuple:
    """``(values, image)`` in degree ``k``: ``values`` maps each
    coinvariant index ``bp`` to its section value ``iota(bp)``, and
    ``image`` is the frozenset of the values of the nonempty indices."""
    values = {bp: pj.iota(bp) for bp in b_prime_basis(k)}
    return values, frozenset(u for bp, u in values.items() if bp.tree)


def _classify(w: tuple) -> tuple:
    """``(big, even, first)`` for ``w``, from one scan of its cuts: is
    ``w`` in the big index set (:func:`in_script_s`), is the maximal
    initial run of its components that lie in the section image of even
    length, and the length of its first component (0 when ``w`` is
    empty).  Components are standardized only while the run lasts, and
    the last one not at all: it already holds the values 1 .. its
    length."""
    n = len(w)
    cuts = tc._perm_cuts(w)
    length = 0
    # the piece between the cuts j < k holds the values n-k+1 .. n-j
    for j, k in zip(cuts, cuts[1:]):
        piece = w[j:] if k == n else tuple(a - n + k for a in w[j:k])
        if piece not in _sections(k - j)[1]:
            break
        length += 1
    return _last_has_132(w, cuts), length % 2 == 0, cuts[1] if n else 0


@lru_cache(maxsize=None)
def _script_sets(n: int) -> tuple:
    """``(script_s_prime(n), classes)`` from one pass over the
    permutations, classifying each once.  ``classes`` is the class table
    of degree ``n``: it maps each member ``w`` of the big index set, in
    the generator's order, to ``2 * first + even`` of :func:`_classify`,
    a small int that costs the table nothing beyond its slot."""
    restricted, classes = [], {}
    for w in tc.enumerate_family("S", n):
        big, even, first = _classify(w)
        if big:
            classes[w] = 2 * first + even
            if even:
                restricted.append(w)
    return tuple(restricted), classes


def script_s_prime(n: int) -> tuple:
    return _script_sets(n)[0]


def kappa(bp: BiLeveledTree, v: tuple) -> tuple:
    """The graded bijection: prepend the section value of ``bp``.  Both
    arguments are looked up in the tables of their degrees, which the
    first call at a degree builds; only ``verify`` reaches this
    function."""
    u = _sections(tc.nodes(bp.tree))[0].get(bp)
    if u is None:
        raise ValueError("left argument must be a coinvariant index")
    if not _script_sets(len(v))[1].get(v, 0) & 1:
        raise ValueError("right argument must lie in the restricted set")
    return tuple(a + len(v) for a in u) + v


def kappa_inverse(w: tuple):
    """The inverse of :func:`kappa` on the big index set.  The class of
    ``w`` is read from the class table of its degree, which the first
    call at a degree builds, as :func:`kappa` does; only ``verify``
    reaches this function."""
    code = _script_sets(len(w))[1].get(w)
    if code is None:
        raise ValueError("argument must lie in the big index set")
    if code & 1:
        return (EMPTY_B, w)
    # split off the first indecomposable component, standardized
    n, first = len(w), code >> 1
    return (pj.beta(tuple(a - n + first for a in w[:first])), w[first:])


# ---------------------------------------------------------------------------
# exact coinvariant index sets


def coinvariant_kernel(n: int, restricted: bool) -> list:
    """The index set of the coinvariants in degree ``n``: the bi-leveled
    trees at the free columns of the exact elimination of ``coaction(x) =
    x (x) 1`` (the restricted coaction when ``restricted``), in canonical
    order, the generator's.  A free column, one without a pivot, is the
    last term of a coinvariant, and no pivot column is one; so there is one
    free column per dimension."""
    if restricted and n == 0:
        return []
    basis, pivots = _coinvariant_echelon(n, restricted)
    return [b for j, b in enumerate(basis) if j not in pivots]


def _coinvariant_echelon(n: int, restricted: bool) -> tuple:
    """The bi-leveled trees of degree ``n`` in canonical order, and the
    :func:`_echelon` form of ``coaction(x) - x (x) 1`` on them, one column
    per tree."""
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
    return basis, _echelon(rows.values())


def _echelon(rows) -> dict:
    """A row echelon form of sparse integer rows ``{column: value}``, by
    one forward pass of integer row operations: ``{pivot column: row}``,
    each row's pivot its least column, its entry there positive and its
    entries coprime.  Rows that reduce to zero are dropped; the form is not
    reduced, so a row may have entries at later pivot columns."""
    pivots: dict = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = _primitive(row, row[lead])
                break
            row = _eliminate(row, pivots[lead], lead)
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


class _Numbers(dict):
    """The numbers of the elements of one family: ``numbers[x]`` gives
    ``x`` the next number on its first read, and ``numbers.elements[i]``
    is the element numbered ``i``."""

    def __init__(self):
        super().__init__()
        self.elements = []

    def __missing__(self, x):
        i = self[x] = len(self.elements)
        self.elements.append(x)
        return i


class _Images(dict):
    """The images of basis elements under ``image``, each as its map of
    term number and coefficient: ``images[key]`` calls ``image(key)`` on
    the first read of ``key`` and keeps what it returns; ``image`` looks
    its module attributes up when it runs."""

    def __init__(self, image):
        super().__init__()
        self.image = image

    def __missing__(self, key):
        image = self[key] = self.image(key)
        return image


def _numbered(comb, *numbers) -> dict:
    """The terms of a linear (one ``numbers``) or two-leg tensor (two)
    combination, each element replaced by its number."""
    if len(numbers) == 1:
        (first,) = numbers
        return {first[x]: c for x, c in comb.terms.items()}
    first, second = numbers
    return {(first[x], second[y]): c for (x, y), c in comb.terms.items()}


class LawImages:
    """The images that the two Hopf-module reports read, kept for the
    degrees of one run.  Bi-leveled trees are numbered in ``M`` and trees
    in ``Y``, each on its first use; an image is a dict from term numbers
    (a pair of numbers for a tensor) to coefficients, so the laws add and
    compare ints and pairs of ints, and hash no tree after it is numbered.
    ``action[b, t]``, ``coaction[b]``, ``product[s, t]``, ``coproduct[t]``,
    ``to_F_M[b]`` and ``to_F_Y[t]`` are keyed by numbers too; each is
    computed on its first read through the module attribute of its map.
    Nothing is kept beyond the object: a run builds one and drops it at
    its end."""

    def __init__(self):
        M, Y = self.M, self.Y = _Numbers(), _Numbers()
        m, y = M.elements, Y.elements
        self.action = _Images(lambda bt: _numbered(
            plus_action(F("M", m[bt[0]]), F("Y", y[bt[1]])), M))
        self.coaction = _Images(
            lambda b: _numbered(plus_coaction(F("M", m[b])), M, Y))
        self.product = _Images(lambda st: _numbered(
            ha.mul_F(F("Y", y[st[0]]), F("Y", y[st[1]])), Y))
        self.coproduct = _Images(
            lambda t: _numbered(ha.comul_F(F("Y", y[t])), Y, Y))
        self.to_F_M = _Images(lambda b: _numbered(ha.to_F(Mb("M", m[b])), M))
        self.to_F_Y = _Images(lambda t: _numbered(ha.to_F(Mb("Y", y[t])), Y))


def _nonzero(sums: dict) -> dict:
    """``sums`` without its zero coefficients."""
    return {k: c for k, c in sums.items() if c}


def plus_module_verify(n: int, images: LawImages | None = None) -> dict:
    """Check the restricted Hopf-module law on every pair of a bi-leveled
    tree of positive degree and a tree, of total degree ``n``: the
    coaction of the action is the action and product, leg by leg, of the
    coaction and the coproduct.  Each image of one basis element (action,
    coaction, product, coproduct) is read from ``images``, which a
    ``verify`` run passes to each of its degrees; the default, a fresh
    one, is there so that the report of one degree runs alone.  Each
    side is summed from these images into a dict of tensor key (a pair of
    numbers) and coefficient, and the two dicts are compared without
    their zero coefficients."""
    images = LawImages() if images is None else images
    M, Y = images.M, images.Y
    action, coaction = images.action, images.coaction
    product, coproduct = images.product, images.coproduct
    violations = []
    for n1 in range(1, n + 1):
        trees = [(t, Y[t]) for t in tc.all_trees(n - n1)]
        for b in tc.all_bileveled(n1):
            i = M[b]
            split = coaction[i].items()
            for t, j in trees:
                lhs: dict = {}
                for c, k in action[i, j].items():
                    for keys, u in coaction[c].items():
                        lhs[keys] = lhs.get(keys, 0) + k * u
                rhs: dict = {}
                for (b0, b1), u in split:
                    for (t0, t1), v in coproduct[j].items():
                        uv = u * v
                        for x, a in action[b0, t0].items():
                            for y, p in product[b1, t1].items():
                                keys = (x, y)
                                rhs[keys] = rhs.get(keys, 0) + uv * a * p
                if _nonzero(lhs) != _nonzero(rhs):
                    violations.append(
                        (tc.format_bileveled(b), tc.format_tree(t)))
    return {"n": n, "ok": not violations, "violations": violations}


def bbslash_verify(n: int, images: LawImages | None = None) -> dict:
    """Check the transported structure on each bi-leveled tree ``b`` of
    degree ``n``, keyed by ``bbslash_decompose(b)``: the empty tree acts as
    the unit; the transported coaction is the closed form
    ``rho_M_closed(b)``; and that closed form, rewritten in the fundamental
    basis, is ``coaction_rho`` of ``b``'s fundamental expansion. A
    violation is the encoding of ``b``.  Each ``to_F`` of one second-basis
    vector is read from ``images``, which a ``verify`` run passes to each
    of its degrees; the default, a fresh one, is there so that the report
    of one degree runs alone.  Each ``coaction_rho`` of one fundamental
    vector, all of degree ``n``, is computed once per call.  Both sides
    of the last comparison are summed from these images into dicts of
    tensor key (a pair of numbers) and coefficient, compared without
    their zero coefficients."""
    images = LawImages() if images is None else images
    M, Y = images.M, images.Y
    to_F_M, to_F_Y = images.to_F_M, images.to_F_Y
    rho = _Images(lambda c: _numbered(
        ha.coaction_rho(F("M", M.elements[c])), M, Y))
    violations = []
    for b in tc.all_bileveled(n):
        bp, t = bbslash_decompose(b)
        closed = ha.rho_M_closed(b)
        lhs: dict = {}
        for (x, y), c in closed.terms.items():
            right = to_F_Y[Y[y]].items()
            for x1, a in to_F_M[M[x]].items():
                for y1, p in right:
                    keys = (x1, y1)
                    lhs[keys] = lhs.get(keys, 0) + c * a * p
        rhs: dict = {}
        for c, mu in to_F_M[M[b]].items():
            for keys, r in rho[c].items():
                rhs[keys] = rhs.get(keys, 0) + mu * r
        if msym_action_M(bp, t, tc.LEAF) != Mb("M", b) \
                or msym_coaction_M(bp, t) != closed \
                or _nonzero(lhs) != _nonzero(rhs):
            violations.append(tc.format_bileveled(b))
    return {"n": n, "ok": not violations, "violations": violations}


def coinvariants_verify(n: int) -> dict:
    """Check that the coinvariants in degree ``n``, solved exactly, are
    indexed member by member by the stated index sets, for the restricted
    and the full coaction.  The stated vector ``to_F(M_b)`` is ``F_b`` plus
    terms above ``b``, which come first in canonical order, so where these
    vectors span the coinvariants their last terms ``b`` are the free
    columns of :func:`coinvariant_kernel`."""
    violations = []
    if coinvariant_kernel(n, restricted=True) != list(b_basis(n)):
        violations.append(("restricted", n))
    if coinvariant_kernel(n, restricted=False) != list(b_prime_basis(n)):
        violations.append(("full", n))
    return {"n": n, "ok": not violations, "violations": violations}


def kappa_verify(n: int) -> dict:
    """Check that ``kappa`` maps the pairs of total degree ``n`` one to one
    onto the big index set, the members of the degree's class table, and
    that ``kappa_inverse`` undoes it."""
    target = _script_sets(n)[1]
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
    violations += [tc.format_perm(u)
                   for u in sorted(target.keys() - built.keys())]
    for u, pair in built.items():
        if kappa_inverse(u) != pair:
            violations.append(tc.format_perm(u))
    return {"n": n, "ok": not violations, "violations": violations}
