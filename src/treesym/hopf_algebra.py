"""Graded linear structures on the three families.

Vector spaces are spanned by a fundamental basis ``F`` indexed by the
elements of one family (permutations ``S``, bi-leveled trees ``M``, binary
trees ``Y``) and carry a second basis ``M`` obtained by Mobius inversion
along the family's order.  This module implements:

* the product of two fundamental basis elements (split the left factor
  along a multiset of leaves, graft the pieces onto the right factor);
* the coproduct on ``S`` and ``Y`` (two-part splittings);
* the coaction of ``Y`` on ``M``, which cuts a bi-leveled tree in two
  at each leaf, or at each leaf from a given one on;
* basis changes ``to_M`` / ``to_F`` and the closed forms for the second
  basis: products on ``S`` and ``Y`` (:data:`M_PRODUCTS`) read from
  shuffles, the second through the first along ``tau``; coproducts as sums
  over the two-factor backslash decompositions of
  :data:`trees_core.FAMILIES`; and the coaction with its single exceptional
  term;
* the leg-by-leg product of two tensors.

A vector is a :class:`LinComb`: a family tag, a basis flavor (``"F"`` or
``"M"``) and a map from elements of that family to coefficients;
:meth:`LinComb.map_elements` extends a map of elements, such as ``tau``
or ``beta``, linearly.  A
:class:`TensorComb` carries one family tag per leg, one flavor, and a map
from tuples of elements to coefficients.  The tags are checked once per
combination; the zero keeps its tags.  All coefficients are exact
integers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from typing import Callable, Mapping

from . import posets as po
from . import projections as pj
from . import trees_core as tc
from .trees_core import BiLeveledTree

__all__ = [
    "LinComb", "TensorComb",
    "F", "Mb", "COPRODUCTS", "M_PRODUCTS",
    "mul_F", "mul_M", "perm_product_M", "tree_product_M",
    "comul_F", "coaction_rho", "split_coaction",
    "to_M", "to_F",
    "comul_M_closed", "rho_M_closed",
    "tensor_mul",
    "format_lincomb",
]


class _Comb:
    """Shared mechanics of linear and tensor combinations: one family tag
    per tensor leg in ``legs``, one basis ``flavor`` (``"F"`` or ``"M"``)
    for all legs, and the terms with their nonzero integer coefficients."""

    def __init__(self, legs: tuple, flavor: str, terms: Mapping):
        if flavor not in ("F", "M"):
            raise ValueError("unknown flavor %r" % (flavor,))
        self.legs, self.flavor = legs, flavor
        self.terms = {k: c for k, c in terms.items() if c}
        for i, family in enumerate(legs):
            if family not in tc.FAMILIES:
                raise ValueError("unknown family %r" % (family,))
            if family == "M" and not all(
                    isinstance(self._legs(k)[i], BiLeveledTree)
                    for k in self.terms):
                raise ValueError("family M requires a bi-leveled tree")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.legs == other.legs \
            and self.flavor == other.flavor and self.terms == other.terms

    def __hash__(self):
        return hash((self.legs, self.flavor, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (other.legs, other.flavor) != (self.legs, self.flavor):
            raise ValueError("mixed families or flavors in one combination")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int):
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def leg_items(self) -> list:
        """The terms as ``(tuple of elements, coefficient)`` pairs, one
        element per tensor leg."""
        legs = self._legs
        return [(legs(k), c) for k, c in self.terms.items()]


class LinComb(_Comb):
    """Integer combination of the basis vectors of one family in one
    flavor: ``terms`` maps elements of ``family`` to coefficients."""

    def __init__(self, family: str, flavor: str, terms: Mapping):
        self.family = family
        super().__init__((family,), flavor, terms)

    _legs = staticmethod(lambda element: (element,))

    def _like(self, terms) -> "LinComb":
        return LinComb(self.family, self.flavor, terms)

    def map_elements(self, family: str, fn: Callable) -> "LinComb":
        """The image under ``fn``, which sends elements of this family to
        elements of ``family``, extended linearly."""
        out: dict = {}
        for x, c in self.terms.items():
            y = fn(x)
            out[y] = out.get(y, 0) + c
        return LinComb(family, self.flavor, out)


class TensorComb(_Comb):
    """Integer combination of tensors of basis vectors in one flavor:
    ``terms`` maps tuples of elements, one per leg, to coefficients, and
    ``legs`` holds the family of each tensor position."""

    _legs = staticmethod(tuple)

    def __init__(self, legs: tuple, flavor: str, terms: Mapping):
        if any(len(keys) != len(legs) for keys in terms):
            raise ValueError("a tensor term needs one element per leg")
        super().__init__(legs, flavor, terms)

    def _like(self, terms) -> "TensorComb":
        return TensorComb(self.legs, self.flavor, terms)


def F(family: str, element) -> LinComb:
    """The fundamental basis vector of ``element``."""
    return LinComb(family, "F", {element: 1})


def Mb(family: str, element) -> LinComb:
    """The Mobius-inverted basis vector of ``element``."""
    return LinComb(family, "M", {element: 1})


# ---------------------------------------------------------------------------
# display


def _formatted_terms(a: LinComb) -> list:
    """``(text, coefficient)`` per term of a linear or tensor combination,
    legs joined by ``(x)``, ordered by the text encodings of the elements;
    a degree-0 element reads ``1``."""
    def text(family: str, x) -> str:
        if tc.FAMILIES[family].degree(x) == 0:
            return "1"
        return "%s[%s:%s]" % (a.flavor, family, tc.FAMILIES[family].format(x))

    items = sorted(a.leg_items(), key=lambda entry: tuple(
        tc.FAMILIES[f].format(x) for f, x in zip(a.legs, entry[0])))
    return [(" (x) ".join(text(f, x) for f, x in zip(a.legs, keys)), c)
            for keys, c in items]


def format_lincomb(a: LinComb) -> str:
    """A linear or tensor combination as text: each term is its sign (only
    a ``-`` on the first term), ``k*`` when ``|k| != 1``, and its text."""
    out = ""
    for text, c in _formatted_terms(a):
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += ("" if abs(c) == 1 else "%d*" % abs(c)) + text
    return out or "0"


# ---------------------------------------------------------------------------
# products


def _require(a: LinComb, flavor: str, families=("S", "M", "Y")) -> None:
    if a.flavor != flavor:
        raise ValueError("expected flavor %s, got %s" % (flavor, a.flavor))
    if a.family not in families:
        raise ValueError("family %s not supported here" % a.family)


def _factor_family(a: LinComb, b: LinComb, flavor: str) -> str:
    """The family of two factors of one flavor."""
    _require(a, flavor)
    _require(b, flavor)
    if a.family != b.family:
        raise ValueError("cannot multiply across families")
    return a.family


def mul_F(a: LinComb, b: LinComb) -> LinComb:
    """Product in the fundamental basis: split the left factor into as many
    pieces as the right factor has leaves and graft."""
    family = _factor_family(a, b, "F")
    degree = tc.FAMILIES[family].degree
    out: dict = {}
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            for forest in tc.splittings(family, x, degree(y)):
                z = tc.graft(family, forest, y)
                out[z] = out.get(z, 0) + ca * cb
    return LinComb(family, "F", out)


COPRODUCTS = {
    # the families with a coproduct: how one part of a two-part splitting
    # becomes an element of the family (a permutation's parts keep the
    # letters of the whole, so they are standardized)
    "S": lambda part: tc.standardize(part),
    "Y": lambda part: part,
}


def comul_F(a: LinComb) -> TensorComb:
    """Coproduct on the families of :data:`COPRODUCTS`: all two-part
    splittings, each part made a genuine element."""
    _require(a, "F", families=COPRODUCTS)
    family = a.family
    element = COPRODUCTS[family]
    out: dict = {}
    for x, c in a.terms.items():
        for left, right in tc.splittings(family, x, 1):
            keys = (element(left), element(right))
            out[keys] = out.get(keys, 0) + c
    return TensorComb((family, family), "F", out)


def coaction_rho(a: LinComb) -> TensorComb:
    """Coaction of the tree family on bi-leveled trees: split in two, keep
    the marks on the first part, forget them on the second."""
    return split_coaction(a, 0)


def split_coaction(a: LinComb, first: int) -> TensorComb:
    """The coaction that cuts each bi-leveled tree at each leaf ``i`` from
    ``first`` on, read from the tree's cut table: the left part keeps the
    marks up to ``i``, and the right part is a plain tree."""
    _require(a, "F", families=("M",))
    out: dict = {}
    for x, c in a.terms.items():
        marks = sorted(x.ideal)
        cuts = tc._tree_cuts(x.tree)
        for i in range(first, len(cuts)):
            t0, t1 = cuts[i]
            keys = (BiLeveledTree(t0, frozenset(marks[:bisect_right(marks, i)])),
                    t1)
            out[keys] = out.get(keys, 0) + c
    return TensorComb(("M", "Y"), "F", out)


# ---------------------------------------------------------------------------
# basis change


def to_M(a: LinComb) -> LinComb:
    """Rewrite a fundamental-basis combination in the second basis, using
    F_x = sum of M_y over y at least x."""
    _require(a, "F")
    family = a.family
    degree = tc.FAMILIES[family].degree
    out: dict = {}
    for x, c in a.terms.items():
        for y in po.family_poset(family, degree(x)).above(x):
            out[y] = out.get(y, 0) + c
    return LinComb(family, "M", out)


def to_F(a: LinComb) -> LinComb:
    """Inverse basis change: M_x = sum of mu(x, y) F_y over y at least x."""
    _require(a, "M")
    out: dict = {}
    for x, c in a.terms.items():
        for y, mu in po.mobius_row_of(a.family, x).items():
            out[y] = out.get(y, 0) + c * mu
    return LinComb(a.family, "F", out)


# ---------------------------------------------------------------------------
# the closed second-basis forms


def perm_product_M(u: tuple, v: tuple) -> dict:
    """The second-basis product ``M_u M_v`` of two permutations, as
    ``{w: coefficient}`` (Aguiar-Sottile, Adv. Math. 191, 2005, Thm 4.1).

    The coefficient of ``w`` counts the position sets ``P`` of size
    ``len(u)`` such that ``w`` reads ``u`` on ``P`` and ``v`` on the other
    positions ``Q`` (up to relative order), and ``w(i) > w(j)`` whenever
    ``i`` in ``Q`` comes before ``j`` in ``P``: ``w`` lies above the
    shuffle word of ``P`` in the weak order.  Given ``P``, such a ``w`` is a
    merge of the values of ``u`` and ``v``: ``c[b]`` values of ``u`` lie
    below the value ``b`` of ``v``, and ``c`` is nondecreasing and at least,
    at each ``b``, every letter of ``u`` that comes after ``b``.
    """
    p, q = len(u), len(v)
    out: dict = {}
    for P in combinations(range(p + q), p):
        # the shuffle word: (letter of u, None) at P, (None, letter of v) at Q
        left, right = iter(u), iter(v)
        shuffle = [(next(left), None) if i in P else (None, next(right))
                   for i in range(p + q)]
        low = [0] * (q + 1)
        top = 0
        for a, b in reversed(shuffle):
            if b is None:
                top = max(top, a)
            else:
                low[b] = top
        merges = [()]
        for b in range(1, q + 1):
            merges = [c + (k,) for c in merges
                      for k in range(max(low[b], c[-1] if c else 0), p + 1)]
        for c in merges:
            # the value a of u has bisect_left(c, a) values of v below it
            w = tuple(a + bisect_left(c, a) if b is None else b + c[b - 1]
                      for a, b in shuffle)
            out[w] = out.get(w, 0) + 1
    return out


def tree_product_M(s: tuple, t: tuple) -> dict:
    """The second-basis product ``M_s M_t`` of two trees, as ``{tree:
    coefficient}``: the image under ``tau`` of ``M_u M_v`` for the fiber
    maxima ``u``, ``v`` of ``s`` and ``t``.  ``tau`` sends ``M_w`` to
    ``M_tau(w)`` when ``w`` is the maximum of its fiber, the one word that
    avoids 132, and to 0 otherwise (Aguiar-Sottile, J. Algebra 295, 2006).
    """
    out: dict = {}
    for w, c in perm_product_M(pj.max_perm(s), pj.max_perm(t)).items():
        if pj.avoids_132(w):
            r = pj.tau(w)
            out[r] = out.get(r, 0) + c
    return out


M_PRODUCTS = {
    # the families with a closed second-basis product: the product of two
    # elements as {element: coefficient}; the bi-leveled family has none,
    # and multiplies through the fundamental basis
    "S": perm_product_M,
    "Y": tree_product_M,
}


def mul_M(a: LinComb, b: LinComb) -> LinComb:
    """Product in the second basis: term by term from :data:`M_PRODUCTS`,
    or else through the fundamental basis."""
    family = _factor_family(a, b, "M")
    product = M_PRODUCTS.get(family)
    if product is None:
        return to_M(mul_F(to_F(a), to_F(b)))
    out: dict = {}
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            for z, c in product(x, y).items():
                out[z] = out.get(z, 0) + ca * cb * c
    return LinComb(family, "M", out)


def comul_M_closed(family: str, element) -> TensorComb:
    """Coproduct of one second-basis vector as a sum over two-factor
    backslash decompositions."""
    if family not in COPRODUCTS:
        raise ValueError("no coproduct on family %s" % family)
    out: dict = {}
    for keys in tc.FAMILIES[family].decompose(element):
        out[keys] = out.get(keys, 0) + 1
    return TensorComb((family, family), "M", out)


def rho_M_closed(b: BiLeveledTree) -> TensorComb:
    """Coaction of one second-basis bi-leveled vector: a sum over backslash
    decompositions, plus one extra term with an empty first factor exactly
    when ``b`` is the top of its projection fiber."""
    out: dict = {}
    for keys in tc.bileveled_backslash_decompositions(b):
        out[keys] = out.get(keys, 0) + 1
    if pj.is_fiber_top(b):
        keys = (tc.FAMILIES["M"].empty, b.tree)
        out[keys] = out.get(keys, 0) + 1
    return TensorComb(("M", "Y"), "M", out)


# ---------------------------------------------------------------------------
# tensor utilities


def _expand(out: dict, c: int, images) -> None:
    """Add ``c`` times the tensor product of ``images`` (one linear or
    tensor combination per leg) to the terms ``out``, multilinearly."""
    partial = {(): c}
    for img in images:
        items = img.leg_items()
        partial = {ks + legs: cv * v
                   for ks, cv in partial.items() for legs, v in items}
    for ks, v in partial.items():
        out[ks] = out.get(ks, 0) + v


def _one_term_legs(t: TensorComb) -> list:
    """The terms of ``t`` as ``(one-term combination per leg,
    coefficient)`` pairs."""
    return [([LinComb(family, t.flavor, {x: 1})
              for family, x in zip(t.legs, keys)], c)
            for keys, c in t.terms.items()]


def tensor_mul(t1: TensorComb, t2: TensorComb, *leg_muls) -> TensorComb:
    """Multiply two tensor combinations leg by leg with the given products;
    each leg of the result has the family of its left factor."""
    if not (len(t1.legs) == len(t2.legs) == len(leg_muls)):
        raise ValueError("arity mismatch")
    out: dict = {}
    right = _one_term_legs(t2)
    for legs1, c1 in _one_term_legs(t1):
        for legs2, c2 in right:
            _expand(out, c1 * c2, [mul(a1, a2) for mul, a1, a2
                                   in zip(leg_muls, legs1, legs2)])
    return TensorComb(t1.legs, t1.flavor, out)
