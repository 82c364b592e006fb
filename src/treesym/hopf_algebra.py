"""Graded linear structures on the three families.

Vector spaces are spanned by a fundamental basis ``F`` indexed by the
elements of one family (permutations ``S``, bi-leveled trees ``M``, binary
trees ``Y``) and carry a second basis ``M`` obtained by Mobius inversion
along the family's order.  This module implements:

* the product of two fundamental basis elements (split the left factor
  along a multiset of leaves, graft the pieces onto the right factor);
* the coproduct on ``S`` and ``Y`` (two-part splittings);
* the coaction of ``Y`` on ``M`` and the comodule map of ``S`` on ``M``;
* linear extensions of the projection maps;
* basis changes ``to_M`` / ``to_F`` and the closed forms for the second
  basis: coproducts as sums over two-factor backslash decompositions and
  the coaction with its single exceptional term.

All coefficients are exact integers.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from . import posets as po
from . import projections as pj
from . import trees_core as tc
from .trees_core import BiLeveledTree

__all__ = [
    "BasisKey", "LinComb", "TensorComb",
    "F", "Mb", "unit",
    "mul_F", "comul_F", "coaction_rho", "split_coaction",
    "ssym_comodule_on_msym",
    "lin_tau", "lin_beta", "lin_phi",
    "to_M", "to_F",
    "comul_M_closed", "rho_M_closed",
    "tree_backslash_decompositions", "perm_backslash_decompositions",
    "bileveled_backslash_decompositions",
    "tensor_of", "tensor_apply", "tensor_mul",
    "format_lincomb", "format_tensor",
]


class BasisKey(NamedTuple):
    """One basis vector: a family tag, a basis flavor, and an element."""

    family: str   # "S", "M", or "Y"
    flavor: str   # "F" or "M"
    element: object

    def degree(self) -> int:
        return tc.FAMILIES[self.family].degree(self.element)

    def format(self) -> str:
        if self.degree() == 0:
            return "1"
        return "%s[%s:%s]" % (
            self.flavor, self.family,
            tc.FAMILIES[self.family].format(self.element))


def _validate_key(key: BasisKey) -> None:
    if key.family not in tc.FAMILIES:
        raise ValueError("unknown family %r" % (key.family,))
    if key.flavor not in ("F", "M"):
        raise ValueError("unknown flavor %r" % (key.flavor,))
    if key.family == "M" and not isinstance(key.element, BiLeveledTree):
        raise ValueError("family M requires a bi-leveled tree")


class _Comb:
    """Shared mechanics of linear and tensor combinations."""

    def __init__(self, terms: Mapping):
        cleaned = {k: c for k, c in terms.items() if c}
        self._check(cleaned)
        self.terms = cleaned

    def _check(self, terms) -> None:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int):
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented


class LinComb(_Comb):
    """Integer combination of basis vectors sharing one family and flavor."""

    def _check(self, terms) -> None:
        tags = set()
        for key in terms:
            _validate_key(key)
            tags.add((key.family, key.flavor))
        if len(tags) > 1:
            raise ValueError("mixed families or flavors in one combination")

    def signature(self):
        """The shared ``(family, flavor)`` pair, or ``None`` when zero."""
        for key in self.terms:
            return (key.family, key.flavor)
        return None

    def map_keys(self, fn: Callable[[BasisKey], BasisKey]) -> "LinComb":
        out: dict = {}
        for key, c in self.terms.items():
            new = fn(key)
            out[new] = out.get(new, 0) + c
        return LinComb(out)

    def __str__(self) -> str:
        return format_lincomb(self)


class TensorComb(_Comb):
    """Integer combination of tensors of basis vectors.

    Every term is a tuple of :class:`BasisKey`; all terms share an arity,
    all legs share one flavor, and within each tensor position all terms
    share one family (the families of different legs may differ).
    """

    def _check(self, terms) -> None:
        shapes = set()
        for keys in terms:
            for key in keys:
                _validate_key(key)
            shapes.add(tuple((k.family, k.flavor) for k in keys))
        if len(shapes) > 1:
            raise ValueError("mixed tensor shapes in one combination")
        if shapes:
            (shape,) = shapes
            if len({flavor for _, flavor in shape}) > 1:
                raise ValueError("tensor legs must share one flavor")

    def __str__(self) -> str:
        return format_tensor(self)


def F(family: str, element) -> LinComb:
    """The fundamental basis vector of ``element``."""
    return LinComb({BasisKey(family, "F", element): 1})


def Mb(family: str, element) -> LinComb:
    """The Mobius-inverted basis vector of ``element``."""
    return LinComb({BasisKey(family, "M", element): 1})


def unit(family: str, flavor: str = "F") -> LinComb:
    """The degree-0 basis vector (both flavors agree there)."""
    return LinComb({BasisKey(family, flavor, tc.FAMILIES[family].empty): 1})


# ---------------------------------------------------------------------------
# display


def _sorted_items(terms):
    def key_of(entry):
        keys = entry[0]
        if isinstance(keys, BasisKey):
            keys = (keys,)
        return tuple(tc.FAMILIES[k.family].format(k.element) for k in keys)

    return sorted(terms.items(), key=key_of)


def _join(parts) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


def _scalar_prefix(c: int) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return "%d*" % c


def format_lincomb(a: LinComb) -> str:
    parts = [
        _scalar_prefix(c) + key.format() for key, c in _sorted_items(a.terms)]
    return _join(parts)


def format_tensor(a: TensorComb) -> str:
    parts = [
        _scalar_prefix(c) + " (x) ".join(k.format() for k in keys)
        for keys, c in _sorted_items(a.terms)]
    return _join(parts)


# ---------------------------------------------------------------------------
# products


def _require(a: LinComb, flavor: str, families=("S", "M", "Y")) -> None:
    sig = a.signature()
    if sig is None:
        return
    family, flav = sig
    if flav != flavor:
        raise ValueError("expected flavor %s, got %s" % (flavor, flav))
    if family not in families:
        raise ValueError("family %s not supported here" % family)


def mul_F(a: LinComb, b: LinComb) -> LinComb:
    """Product in the fundamental basis: split the left factor into as many
    pieces as the right factor has leaves and graft."""
    _require(a, "F")
    _require(b, "F")
    siga, sigb = a.signature(), b.signature()
    if siga is None or sigb is None:
        return LinComb({})
    if siga[0] != sigb[0]:
        raise ValueError("cannot multiply across families")
    family = siga[0]
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            m = kb.degree()
            for forest in tc.splittings(family, ka.element, m):
                key = BasisKey(family, "F",
                               tc.graft(family, forest, kb.element))
                out[key] = out.get(key, 0) + ca * cb
    return LinComb(out)


def comul_F(a: LinComb) -> TensorComb:
    """Coproduct on families S and Y: all two-part splittings, each part
    renormalized to a genuine element."""
    _require(a, "F", families=("S", "Y"))
    sig = a.signature()
    if sig is None:
        return TensorComb({})
    family = sig[0]
    out: dict = {}
    for key, c in a.terms.items():
        for left, right in tc.splittings(family, key.element, 1):
            if family == "S":
                left, right = tc.standardize(left), tc.standardize(right)
            keys = (BasisKey(family, "F", left), BasisKey(family, "F", right))
            out[keys] = out.get(keys, 0) + c
    return TensorComb(out)


def coaction_rho(a: LinComb) -> TensorComb:
    """Coaction of the tree family on bi-leveled trees: split in two, keep
    the marks on the first part, forget them on the second."""
    return split_coaction(a, lambda b: tc.splittings("M", b, 1))


def split_coaction(a: LinComb, split: Callable) -> TensorComb:
    """The coaction through ``split``, which gives the two-part splittings
    of one bi-leveled tree."""
    _require(a, "F", families=("M",))
    out: dict = {}
    for key, c in a.terms.items():
        for (t0, m0), (t1, _m1) in split(key.element):
            keys = (
                BasisKey("M", "F", BiLeveledTree(t0, m0)),
                BasisKey("Y", "F", t1),
            )
            out[keys] = out.get(keys, 0) + c
    return TensorComb(out)


def ssym_comodule_on_msym(a: LinComb) -> TensorComb:
    """Comodule map of permutations on bi-leveled trees: split the
    distinguished fiber representative and push the first part back down."""
    _require(a, "F", families=("M",))
    out: dict = {}
    for key, c in a.terms.items():
        w = pj.iota(key.element)
        for left, right in tc.perm_splittings(w, 1):
            keys = (
                BasisKey("M", "F", pj.beta(tc.standardize(left))),
                BasisKey("S", "F", tc.standardize(right)),
            )
            out[keys] = out.get(keys, 0) + c
    return TensorComb(out)


# ---------------------------------------------------------------------------
# linear extensions of the projection maps


def lin_tau(a: LinComb) -> LinComb:
    _require(a, "F", families=("S",))
    return a.map_keys(lambda k: BasisKey("Y", "F", pj.tau(k.element)))


def lin_beta(a: LinComb) -> LinComb:
    _require(a, "F", families=("S",))
    return a.map_keys(lambda k: BasisKey("M", "F", pj.beta(k.element)))


def lin_phi(a: LinComb) -> LinComb:
    _require(a, "F", families=("M",))
    return a.map_keys(lambda k: BasisKey("Y", "F", pj.phi(k.element)))


# ---------------------------------------------------------------------------
# basis change


def to_M(a: LinComb) -> LinComb:
    """Rewrite a fundamental-basis combination in the second basis, using
    F_x = sum of M_y over y at least x."""
    _require(a, "F")
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


def to_F(a: LinComb) -> LinComb:
    """Inverse basis change: M_x = sum of mu(x, y) F_y over y at least x."""
    _require(a, "M")
    sig = a.signature()
    if sig is None:
        return LinComb({})
    family = sig[0]
    out: dict = {}
    for key, c in a.terms.items():
        poset = po.family_poset(family, key.degree())
        for j, mu in poset.mobius_row(poset.index[key.element]).items():
            new = BasisKey(family, "F", poset.elements[j])
            out[new] = out.get(new, 0) + c * mu
    return LinComb(out)


# ---------------------------------------------------------------------------
# two-factor backslash decompositions and the closed coproduct forms


def tree_backslash_decompositions(t: tuple) -> tuple:
    """All pairs ``(u, v)`` of trees with ``v`` grafted on the rightmost
    leaf of ``u`` giving back ``t`` (both trivial pairs included)."""
    if not t:
        return (((), ()),)
    left, right = t
    return ((tc.LEAF, t),) + tuple(
        ((left, r2), v) for r2, v in tree_backslash_decompositions(right))


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


def bileveled_backslash_decompositions(b: BiLeveledTree) -> tuple:
    """All pairs ``(c, s)`` of a nonempty bi-leveled tree and a tree with
    ``s`` grafted on the rightmost leaf of ``c`` (marks kept) giving ``b``."""
    if not b.tree:
        return ()
    top = max(b.ideal)
    out = []
    for u, v in tree_backslash_decompositions(b.tree):
        if u and top <= tc.nodes(u):
            out.append((BiLeveledTree(u, b.ideal), v))
    return tuple(out)


def comul_M_closed(family: str, element) -> TensorComb:
    """Coproduct of one second-basis vector as a sum over two-factor
    backslash decompositions."""
    if family == "M":
        raise ValueError("no coproduct on family M")
    decompose = {"S": perm_backslash_decompositions,
                 "Y": tree_backslash_decompositions}[family]
    out: dict = {}
    for u, v in decompose(element):
        keys = (BasisKey(family, "M", u), BasisKey(family, "M", v))
        out[keys] = out.get(keys, 0) + 1
    return TensorComb(out)


def rho_M_closed(b: BiLeveledTree) -> TensorComb:
    """Coaction of one second-basis bi-leveled vector: a sum over backslash
    decompositions, plus one extra term exactly when the marks form the
    leftmost branch (the top of its projection fiber)."""
    out: dict = {}
    if not b.tree:
        keys = (BasisKey("M", "M", b), BasisKey("Y", "M", tc.LEAF))
        return TensorComb({keys: 1})
    for c, s in bileveled_backslash_decompositions(b):
        keys = (BasisKey("M", "M", c), BasisKey("Y", "M", s))
        out[keys] = out.get(keys, 0) + 1
    if b.ideal == tc.leftmost_branch(b.tree):
        keys = (
            BasisKey("M", "M", tc.FAMILIES["M"].empty),
            BasisKey("Y", "M", b.tree),
        )
        out[keys] = out.get(keys, 0) + 1
    return TensorComb(out)


# ---------------------------------------------------------------------------
# tensor utilities


def tensor_of(*factors: LinComb) -> TensorComb:
    """Outer product of linear combinations."""
    terms = {(): 1}
    for a in factors:
        terms = {
            keys + (k,): c * ca
            for keys, c in terms.items() for k, ca in a.terms.items()}
    return TensorComb(terms)


def tensor_apply(t: TensorComb, *leg_maps) -> TensorComb:
    """Apply one linear map per tensor leg and expand multilinearly."""
    out: dict = {}
    for keys, c in t.terms.items():
        if len(keys) != len(leg_maps):
            raise ValueError("arity mismatch")
        images = [
            fn(LinComb({key: 1})) for fn, key in zip(leg_maps, keys)]
        partial = {(): c}
        for img in images:
            if isinstance(img, LinComb):
                items = [((k,), v) for k, v in img.terms.items()]
            else:
                items = list(img.terms.items())
            partial = {
                ks + extra: cv * v
                for ks, cv in partial.items() for extra, v in items}
        for ks, v in partial.items():
            out[ks] = out.get(ks, 0) + v
    return TensorComb(out)


def tensor_mul(t1: TensorComb, t2: TensorComb, *leg_muls) -> TensorComb:
    """Multiply two tensor combinations leg by leg with the given products."""
    out: dict = {}
    for keys1, c1 in t1.terms.items():
        for keys2, c2 in t2.terms.items():
            if not (len(keys1) == len(keys2) == len(leg_muls)):
                raise ValueError("arity mismatch")
            partial = {(): c1 * c2}
            for mul, k1, k2 in zip(leg_muls, keys1, keys2):
                prod = mul(LinComb({k1: 1}), LinComb({k2: 1}))
                partial = {
                    ks + (k,): cv * v
                    for ks, cv in partial.items()
                    for k, v in prod.terms.items()}
            for ks, v in partial.items():
                out[ks] = out.get(ks, 0) + v
    return TensorComb(out)
