"""Products, coproducts, the coaction on bi-leveled trees, basis changes,
and the closed second-basis formulas: frozen displays, validation, term
counts and fast paths against their oracles, exhaustively in low degree.
The bialgebra laws themselves are checked once, in ``test_acceptance``."""

from collections import Counter
from math import comb

import pytest

from treesym import hopf_algebra as ha
from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc
from treesym.hopf_algebra import F, Mb, LinComb, TensorComb

import oracles


# ---------------------------------------------------------------------------
# frozen displays


def test_product_display_six_terms():
    p = ha.mul_F(F("M", pj.beta((1, 2))), F("M", pj.beta((2, 1))))
    assert ha.format_lincomb(p) == (
        "F[M:(((..).)(..));{1,2,3,4}] + F[M:((..)((..).));{1,2,3,4}]"
        " + F[M:((..)(.(..)));{1,2,3,4}] + F[M:(.(((..).).));{1}]"
        " + F[M:(.((..)(..)));{1}] + F[M:(.(.((..).)));{1}]")


def test_coaction_display_five_terms():
    r = ha.coaction_rho(F("M", pj.beta((2, 4, 3, 1))))
    assert ha.format_lincomb(r) == (
        "F[M:((..)(.(..)));{1,2,3}] (x) 1"
        " + F[M:((..)(..));{1,2,3}] (x) F[Y:(..)]"
        " + F[M:((..).);{1,2}] (x) F[Y:(.(..))]"
        " + F[M:(..);{1}] (x) F[Y:(.(.(..)))]"
        " + 1 (x) F[Y:((..)(.(..)))]")


def test_closed_coaction_displays():
    shows = {
        (1, 4, 3, 2): "M[M:((..)(.(..)));{1,2,3,4}] (x) 1",
        (2, 4, 3, 1): ("M[M:((..)(.(..)));{1,2,3}] (x) 1"
                       " + M[M:((..)(..));{1,2,3}] (x) M[Y:(..)]"),
        (3, 4, 2, 1): ("M[M:((..)(.(..)));{1,2}] (x) 1"
                       " + M[M:((..)(..));{1,2}] (x) M[Y:(..)]"
                       " + M[M:((..).);{1,2}] (x) M[Y:(.(..))]"
                       " + 1 (x) M[Y:((..)(.(..)))]"),
    }
    for w, text in shows.items():
        assert ha.format_lincomb(ha.rho_M_closed(pj.beta(w))) == text


# ---------------------------------------------------------------------------
# products


def test_product_term_counts():
    for family in "SMY":
        for n in range(4):
            for m in range(4 - n):
                for x in tc.enumerate_family(family, n):
                    for y in tc.enumerate_family(family, m):
                        p = ha.mul_F(F(family, x), F(family, y))
                        assert sum(p.terms.values()) == comb(n + m, m)
                        assert all(c > 0 for c in p.terms.values())
                        assert all(tc.FAMILIES[family].degree(k) == n + m
                                   for k in p.terms)


def test_product_unital():
    for family in "SMY":
        for n in range(4):
            for x in tc.enumerate_family(family, n):
                a = F(family, x)
                assert ha.mul_F(oracles.unit(family), a) == a
                assert ha.mul_F(a, oracles.unit(family)) == a


def test_product_rejects_mixed_families():
    with pytest.raises(ValueError):
        ha.mul_F(F("S", (1,)), F("Y", ((), ())))


def test_tags_keep_families_and_bases_apart():
    """The family and the basis belong to a combination, zero included:
    the empty permutation and the empty tree stay apart, and mixed,
    unknown or ill-typed tags and tensor terms of the wrong arity are
    refused."""
    assert F("S", ()) != F("Y", ())
    assert LinComb("S", "F", {}) != LinComb("Y", "F", {})
    assert LinComb("S", "F", {}) != LinComb("S", "M", {})
    assert TensorComb(("M", "Y"), "F", {}) != TensorComb(("M", "S"), "F", {})
    tree = tc.parse_tree("(..)")
    b = tc.parse_bileveled("(..);{1}")
    for build in [
        lambda: F("S", ()) + F("Y", ()),
        lambda: F("S", (1,)) + Mb("S", (1,)),
        lambda: F("X", (1,)),
        lambda: LinComb("S", "G", {(1,): 1}),
        lambda: LinComb("M", "F", {tree: 1}),
        lambda: TensorComb(("M", "Y"), "F", {(tree, tc.LEAF): 1}),
        lambda: TensorComb(("M", "Y"), "F", {(b, tc.LEAF): 1, (b,): 1}),
        lambda: TensorComb(("M", "Y"), "F", {(b, tc.LEAF, tc.LEAF): 1}),
        lambda: ha.mul_F(F("S", (1,)), F("Y", tree)),
        lambda: ha.mul_F(F("S", (1,)), LinComb("Y", "F", {})),
        lambda: ha.to_F(LinComb("S", "F", {})),
    ]:
        with pytest.raises(ValueError):
            build()
    assert ha.format_lincomb(F("S", ())) == "1"
    assert ha.format_lincomb(F("Y", ())) == "1"


def test_combinations_copy_their_terms_and_check_every_m_leg():
    """A combination drops its zero coefficients and keeps a copy of its
    terms, whether or not any is zero, and refuses a term that is not a
    bi-leveled tree wherever a leg is of family M: the element of a
    linear combination, and either leg of a tensor."""
    b, c = tc.all_bileveled(1)[0], tc.all_bileveled(2)[0]
    tree = tc.parse_tree("(..)")
    for terms in [{b: 2, c: -1}, {b: 2, c: 0}]:
        a = LinComb("M", "F", terms)
        assert a.terms == {x: k for x, k in terms.items() if k}
        assert a.terms is not terms
        terms[b] = 5
        assert a.terms[b] == 2
    t = TensorComb(("M", "Y"), "F", {(b, tree): 0, (c, tc.LEAF): 3})
    assert t.terms == {(c, tc.LEAF): 3}
    for legs, terms in [
            (("M",), {tree: 1}),
            (("M",), {b: 1, tree: 2}),
            (("M",), {b: 0, tree: 2}),
            (("M", "Y"), {(b, tree): 1, (tree, tc.LEAF): 1}),
            (("Y", "M"), {(tree, b): 1, (tc.LEAF, tree): 1}),
            (("M", "M"), {(b, c): 0, (b, tree): 1})]:
        with pytest.raises(ValueError, match="bi-leveled"):
            if len(legs) == 1:
                LinComb(legs[0], "F", terms)
            else:
                TensorComb(legs, "F", terms)


def test_signed_display():
    # terms are ordered by text: 12 < 21 < 231
    assert ha.format_lincomb(LinComb("S", "F", {(1, 2): -1, (2, 1): 1})) \
        == "-F[S:12] + F[S:21]"
    assert ha.format_lincomb(LinComb("S", "F", {(1, 2): -2, (2, 1): -1})) \
        == "-2*F[S:12] - F[S:21]"
    assert ha.format_lincomb(
        LinComb("S", "F", {(1, 2): 1, (2, 1): -3, (2, 3, 1): 2})) \
        == "F[S:12] - 3*F[S:21] + 2*F[S:231]"
    assert ha.format_lincomb(LinComb("S", "M", {})) == "0"
    pair = TensorComb(("M", "Y"), "F", {
        (tc.parse_bileveled("(..);{1}"), tc.LEAF): -2,
        (tc.parse_bileveled("(..);{1}"), (tc.LEAF, tc.LEAF)): -1})
    # the tree "(..)" sorts before the empty tree "."
    assert ha.format_lincomb(pair) \
        == "-F[M:(..);{1}] (x) F[Y:(..)] - 2*F[M:(..);{1}] (x) 1"


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_undefined_on_bileveled():
    with pytest.raises(ValueError):
        ha.comul_F(F("M", pj.beta((1,))))


# ---------------------------------------------------------------------------
# the tree coaction on bi-leveled trees


def test_coaction_term_count():
    for n in range(5):
        for b in tc.enumerate_family("M", n):
            r = ha.coaction_rho(F("M", b))
            assert sum(r.terms.values()) == n + 1


def test_coaction_intertwines_projection():
    ident = lambda a: a
    for n in range(5):
        for w in tc.all_perms(n):
            lhs = ha.coaction_rho(F("S", w).map_elements("M", pj.beta))
            rhs = oracles.tensor_apply(
                ha.comul_F(F("S", w)),
                lambda a: a.map_elements("M", pj.beta),
                lambda a: a.map_elements("Y", pj.tau))
            assert lhs == rhs


def test_permutation_comodule_on_bileveled():
    ident = lambda a: a
    for n in range(5):
        for b in tc.enumerate_family("M", n):
            once = oracles.ssym_comodule_on_msym(F("M", b))
            assert sum(once.terms.values()) == n + 1
            left = oracles.tensor_apply(
                once, oracles.ssym_comodule_on_msym, ident)
            right = oracles.tensor_apply(once, ident, ha.comul_F)
            assert left == right


# ---------------------------------------------------------------------------
# second basis


def test_basis_change_round_trip():
    for family in "SMY":
        for n in range(5):
            for x in tc.enumerate_family(family, n):
                assert ha.to_M(ha.to_F(Mb(family, x))) == Mb(family, x)
                assert ha.to_F(ha.to_M(F(family, x))) == F(family, x)


def test_fundamental_is_upper_sum_of_second():
    for family in "SMY":
        poset = po.family_poset(family, 3)
        for x in poset.elements:
            expanded = ha.to_M(F(family, x))
            assert expanded == LinComb(family, "M", {
                y: 1
                for y in poset.elements if oracles.leq(poset, x, y)})


def test_to_M_matches_the_bitwise_walk():
    for family in "SMY":
        for n in range(7):
            for x in tc.enumerate_family(family, n):
                assert ha.to_M(F(family, x)) == oracles.to_M(F(family, x))


def test_to_M_builds_one_key_per_nonzero_term():
    """A combination over two degrees whose terms cancel on M[S:21] and
    on M[S:321]: the result has one term per nonzero sum, none for those."""
    a = (F("S", (1, 2)) - F("S", (2, 1)) + 2 * F("S", (1, 3, 2))
         - 2 * F("S", (3, 1, 2)))
    result = ha.to_M(a)
    assert result == oracles.to_M(a)
    assert (2, 1) not in result.terms
    assert (3, 2, 1) not in result.terms
    assert len(result.terms) == 4


# ---------------------------------------------------------------------------
# closed second-basis products


def test_closed_perm_product_matches_the_product_through_F():
    pairs = 0
    for n in range(2, 7):
        for p in range(1, n):
            for u in tc.all_perms(p):
                for v in tc.all_perms(n - p):
                    a, b = Mb("S", u), Mb("S", v)
                    assert ha.mul_M(a, b) == oracles.mul_M(a, b), (u, v)
                    pairs += 1
    assert pairs == 465


def test_closed_tree_product_matches_the_product_through_F():
    pairs = 0
    for n in range(7):
        for p in range(n + 1):
            for s in tc.all_trees(p):
                for t in tc.all_trees(n - p):
                    a, b = Mb("Y", s), Mb("Y", t)
                    assert ha.mul_M(a, b) == oracles.mul_M(a, b), (s, t)
                    pairs += 1
    assert pairs == 625


def test_closed_products_of_combinations_are_bilinear():
    a = 2 * Mb("S", (2, 1)) - Mb("S", (1,))
    b = Mb("S", (1, 2)) + 3 * Mb("S", ())
    assert ha.mul_M(a, b) == oracles.mul_M(a, b)
    s = Mb("Y", tc.parse_tree("(..)")) - Mb("Y", tc.parse_tree("((..).)"))
    t = 2 * Mb("Y", tc.parse_tree("(.(..))"))
    assert ha.mul_M(s, t) == oracles.mul_M(s, t)


def test_closed_products_build_no_order_of_the_product_degree(monkeypatch):
    """The products on S and Y ask for no order above the larger factor's
    degree; the bi-leveled product, through F, asks for the product's."""
    requested = []
    build = po.family_poset

    def spy(family, n):
        requested.append(n)
        return build(family, n)

    monkeypatch.setattr(po, "family_poset", spy)
    for family, x, y in (
            ("S", (1, 2, 3, 4), (4, 3, 2, 1)), ("S", (2, 1, 3), (1,)),
            ("S", (), (3, 1, 2)),
            ("Y", tc.parse_tree("((..)(..))"), tc.parse_tree("(.(..))")),
            ("Y", tc.LEAF, tc.parse_tree("(..)"))):
        requested.clear()
        ha.mul_M(Mb(family, x), Mb(family, y))
        degree = tc.FAMILIES[family].degree
        assert max(requested, default=0) <= max(degree(x), degree(y))
    b = tc.parse_bileveled("(..);{1}")
    requested.clear()
    ha.mul_M(Mb("M", b), Mb("M", b))
    assert max(requested) == 2


def test_second_basis_primitives_are_indecomposables():
    for family in "SY":
        for n in range(1, 6):
            for x in tc.enumerate_family(family, n):
                d = ha.comul_M_closed(family, x)
                primitive_shape = TensorComb((family, family), "M", {
                    (x, tc.FAMILIES[family].empty): 1,
                    (tc.FAMILIES[family].empty, x): 1,
                })
                parts = {"S": oracles.perm_indecomposables,
                         "Y": oracles.tree_indecomposables}[family](x)
                assert (d == primitive_shape) == (len(parts) == 1)


def test_beta_pushforward_constant_on_fibers():
    """The pushed-forward product of fundamental vectors only depends on the
    projections of the factors."""
    for n, m in [(1, 2), (2, 2), (1, 3)]:
        for b in tc.enumerate_family("M", n):
            for c in tc.enumerate_family("M", m):
                images = {
                    ha.mul_F(F("S", w), F("S", v)).map_elements(
                        "M", pj.beta)
                    for w in pj.beta_fiber(b) for v in pj.beta_fiber(c)}
                assert len(images) == 1


def test_decomposition_double_count_identity():
    """Nontrivial two-factor decompositions of fiber members biject with
    pairs of decomposition factors taken fiberwise."""
    for n in range(1, 5):
        for b in tc.enumerate_family("M", n):
            left = Counter()
            for w in pj.beta_fiber(b):
                for u, v in tc.perm_backslash_decompositions(w):
                    if u:
                        left[(u, v)] += 1
            right = Counter()
            for c, s in tc.bileveled_backslash_decompositions(b):
                for u in pj.beta_fiber(c):
                    for v in oracles.tau_fiber(s):
                        right[(u, v)] += 1
            assert left == right
