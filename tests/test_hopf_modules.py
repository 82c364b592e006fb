"""The two module/comodule structures of the bi-leveled family over the
trees, their coinvariants, and the final graded bijection."""

import os
import pathlib
import subprocess
import sys

import pytest

from treesym import hopf_algebra as ha
from treesym import hopf_modules as hm
from treesym import projections as pj
from treesym import series as se
from treesym import trees_core as tc
from treesym.hopf_algebra import F, Mb, LinComb, TensorComb

import oracles
from test_must_fail import drop_first_term


# ---------------------------------------------------------------------------
# frozen displays


def test_action_display_three_terms():
    a = hm.plus_action(F("M", pj.beta((2, 1))), F("Y", pj.tau((2, 1))))
    assert ha.format_lincomb(a) == (
        "F[M:((.(..))(..));{1,3,4}] + F[M:((..)((..).));{1,2,4}]"
        " + F[M:((..)(.(..)));{1,2,3}]")


def test_restricted_coaction_display_four_terms():
    r = hm.plus_coaction(F("M", pj.beta((3, 2, 4, 1))))
    assert ha.format_lincomb(r) == (
        "F[M:((.(..))(..));{1,3}] (x) 1"
        " + F[M:((.(..)).);{1,3}] (x) F[Y:(..)]"
        " + F[M:(.(..));{1}] (x) F[Y:(.(..))]"
        " + F[M:(..);{1}] (x) F[Y:((..)(..))]")


def test_transported_product_signed_display():
    out = hm.msym_action_F(F("M", pj.beta((1,))), F("Y", tc.parse_tree("((..).)")))
    assert ha.format_lincomb(out) == (
        "F[M:(((..).).);{1,2,3}] + F[M:((.(..)).);{1,3}]"
        " - F[M:((..)(..));{1,2,3}] + 2*F[M:((..)(..));{1,2}]")
    assert min(out.terms.values()) < 0  # not positive in this basis


# ---------------------------------------------------------------------------
# the restricted structure on positive degrees


def test_plus_action_unital():
    for n in range(1, 5):
        for b in tc.enumerate_family("M", n):
            assert hm.plus_action(F("M", b), oracles.unit("Y")) == F("M", b)


def test_plus_action_rejects_degree_zero():
    with pytest.raises(ValueError):
        hm.plus_action(F("M", hm.EMPTY_B), oracles.unit("Y"))


def test_plus_action_associative():
    for n, m, k in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3), (2, 2, 1)]:
        for b in tc.enumerate_family("M", n):
            for r in tc.all_trees(m):
                for s in tc.all_trees(k):
                    fb, fr, fs = F("M", b), F("Y", r), F("Y", s)
                    assert hm.plus_action(hm.plus_action(fb, fr), fs) == \
                        hm.plus_action(fb, ha.mul_F(fr, fs))


def test_plus_coaction_counit_and_coassociativity():
    ident = lambda a: a
    for n in range(1, 6):
        for b in tc.enumerate_family("M", n):
            once = hm.plus_coaction(F("M", b))
            assert sum(once.terms.values()) == n
            keep = LinComb("M", "F", {
                keys[0]: c for keys, c in once.terms.items()
                if keys[1] == tc.FAMILIES["Y"].empty})
            assert keep == F("M", b)
            left = ha.tensor_apply(once, hm.plus_coaction, ident)
            right = ha.tensor_apply(once, ident, ha.comul_F)
            assert left == right


# ---------------------------------------------------------------------------
# coinvariant index sets and decompositions


def test_coactions_match_the_splittings():
    """Both coactions, read from the cut tables, against the sums over the
    two-part splittings of each bi-leveled tree."""
    for n in range(8):
        for b in tc.all_bileveled(n):
            fb = F("M", b)
            assert ha.coaction_rho(fb) == oracles.split_coaction(
                fb, lambda x: tc.bileveled_splittings(x, 1)), b
            if n:
                assert hm.plus_coaction(fb) == oracles.split_coaction(
                    fb, lambda x: tc.restricted_splittings(x, 1)), b
    with pytest.raises(ValueError):
        hm.plus_coaction(F("M", hm.EMPTY_B))


def test_indecomposable_counts():
    assert [len(hm.b_basis(n)) for n in range(1, 7)] == \
        [1, 1, 3, 11, 44, 185]
    assert [len(hm.b_prime_basis(n)) for n in range(7)] == \
        [1, 0, 0, 1, 6, 30, 143]
    # the two sets differ by fiber tops, one per tree of one fewer node
    cats = [1, 1, 2, 5, 14, 42]
    for n in range(1, 7):
        tops = [b for b in hm.b_basis(n) if pj.is_fiber_top(b)]
        assert len(tops) == cats[n - 1]
        assert len(hm.b_basis(n)) - len(tops) == len(hm.b_prime_basis(n))


def test_positive_degrees_factor_through_indecomposables():
    for n in range(1, 7):
        seen = {}
        for k in range(1, n + 1):
            for b in hm.b_basis(k):
                for s in tc.all_trees(n - k):
                    c = tc.BiLeveledTree(tc.backslash(b.tree, s), b.ideal)
                    assert c not in seen
                    seen[c] = (b, s)
        family = tc.enumerate_family("M", n)
        assert len(seen) == len(family) and set(seen) == set(family)
        for c, pair in seen.items():
            assert hm.b_decompose(c) == pair


def test_first_decomposition_is_the_largest_right_factor():
    for n in range(1, 8):
        for c in tc.enumerate_family("M", n):
            assert hm.b_decompose(c) == oracles.b_decompose(c)


def test_indecomposable_means_one_decomposition():
    for n in range(8):
        for c in tc.enumerate_family("M", n):
            assert hm.is_indecomposable_bileveled(c) == \
                (len(tc.FAMILIES["M"].decompose(c)) == 1)


def test_extended_backslash_is_a_graded_bijection():
    for n in range(7):
        seen = {}
        for k in range(n + 1):
            for bp in hm.b_prime_basis(k):
                for t in tc.all_trees(n - k):
                    c = hm.bbslash(bp, t)
                    assert c not in seen
                    seen[c] = (bp, t)
        family = tc.enumerate_family("M", n)
        assert len(seen) == len(family) and set(seen) == set(family)
        for c, pair in seen.items():
            assert hm.bbslash_decompose(c) == pair


def test_extended_backslash_empty_left_factor_gives_fiber_top():
    for n in range(1, 6):
        for t in tc.all_trees(n):
            top = hm.bbslash(hm.EMPTY_B, t)
            assert pj.is_fiber_top(top)
            assert top.tree == t


def test_extended_backslash_rejects_bad_left_factor():
    top = pj.beta_max(tc.parse_tree("(..)"))
    with pytest.raises(ValueError):
        hm.bbslash(top, tc.LEAF)


# ---------------------------------------------------------------------------
# the transported structure on the full space


def test_transported_coaction_matches_closed_form():
    for n in range(5):
        for c in tc.enumerate_family("M", n):
            bp, t = hm.bbslash_decompose(c)
            assert hm.msym_coaction_M(bp, t) == ha.rho_M_closed(c)


def test_transported_action_unital_and_associative():
    for n in range(4):
        for c in tc.enumerate_family("M", n):
            assert hm.msym_action_F(F("M", c), oracles.unit("Y")) == F("M", c)
    for n, m, k in [(0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1)]:
        for c in tc.enumerate_family("M", n):
            for r in tc.all_trees(m):
                for s in tc.all_trees(k):
                    fc, fr, fs = F("M", c), F("Y", r), F("Y", s)
                    assert hm.msym_action_F(hm.msym_action_F(fc, fr), fs) == \
                        hm.msym_action_F(fc, ha.mul_F(fr, fs))


def test_transported_action_on_coinvariants_is_trivial_in_second_basis():
    """In the second basis, a coinvariant index acted on by a tree spreads
    along the extended backslash of the tree-family product."""
    for bp in hm.b_prime_basis(3):
        for t in tc.all_trees(2):
            image = hm.msym_action_M(bp, tc.LEAF, t)
            expected = LinComb("M", "M", {
                hm.bbslash(bp, r): c
                for r, c in oracles.mul_M(
                    Mb("Y", tc.LEAF), Mb("Y", t)).terms.items()})
            assert image == expected


# ---------------------------------------------------------------------------
# coinvariants by exact kernel solves


def test_restricted_coinvariants_are_indecomposables():
    for n in range(1, 5):
        for b in hm.b_basis(n):
            closed = hm.plus_coaction_M_closed(b)
            assert closed == TensorComb(("M", "Y"), "M", {(b, tc.LEAF): 1})


@pytest.mark.parametrize("restricted", [True, False])
def test_coinvariant_kernel_equals_the_sympy_solve(restricted):
    pytest.importorskip("sympy")
    from oracles import sympy_coinvariant_kernel
    for n in range(6):
        assert hm.coinvariant_kernel(n, restricted) == \
            sympy_coinvariant_kernel(n, restricted)


@pytest.mark.parametrize("restricted", [True, False])
def test_coinvariant_kernel_equals_the_rational_vectors(restricted):
    from oracles import fraction_coinvariant_kernel
    for n in range(7):
        assert hm.coinvariant_kernel(n, restricted) == \
            fraction_coinvariant_kernel(n, restricted)


def test_coinvariants_suite_runs_without_sympy():
    script = ("import sys; from treesym import cli; "
              "code = cli.run(['verify', '--suite', 'coinvariants', '--n', '4']); "
              "print('sympy' in sys.modules); sys.exit(code)")
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": "src"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "OK: coinvariant dimensions match through degree 4", "False"]


# ---------------------------------------------------------------------------
# the final bijection


def test_script_s_counts():
    assert [len(oracles.script_s(n)) for n in range(7)] == \
        [1, 0, 0, 1, 9, 67, 498]
    assert [len(hm.script_s_prime(n)) for n in range(7)] == \
        [1, 0, 0, 0, 3, 37, 355]


def test_script_s_excludes_fiber_maxima():
    for n in range(1, 6):
        maxima = {pj.max_perm(t) for t in tc.all_trees(n)}
        for w in oracles.script_s(n):
            comps = oracles.perm_indecomposables(w)
            assert tc.standardize(comps[-1]) not in maxima


def raises_value_error(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def test_kappa_membership_validation():
    with pytest.raises(ValueError):
        hm.kappa(pj.beta_max(tc.parse_tree("(..)")), ())
    with pytest.raises(ValueError):
        hm.kappa(tc.FAMILIES["M"].empty, (1, 2))  # 12 is not in the index set
    with pytest.raises(ValueError):
        hm.kappa_inverse((1, 2))
    # the guards read per-degree tables; they agree with the definitions
    for n in range(7):
        for v in tc.all_perms(n):
            assert raises_value_error(hm.kappa, hm.EMPTY_B, v) == \
                (not oracles.in_script_s_prime(v)), v
    for n in range(6):
        for bp in tc.all_bileveled(n):
            assert raises_value_error(hm.kappa, bp, ()) == \
                (not hm.is_b_prime(bp)), bp
    # the inverse raises exactly outside the big index set, and splits
    # each member as its standardized components say
    for n in range(7):
        for w in tc.all_perms(n):
            big, even, first = oracles.classify(w)
            assert big == hm.in_script_s(w), w
            if not big:
                assert raises_value_error(hm.kappa_inverse, w), w
            elif even:
                assert hm.kappa_inverse(w) == (hm.EMPTY_B, w), w
            else:
                assert hm.kappa_inverse(w) == (
                    pj.beta(tc.standardize(w[:first])), w[first:]), w


def test_index_sets_match_their_oracles():
    """The section image read from its per-degree set, and the restricted
    index set and the class table's members from one pass, against
    ``beta`` then ``iota`` and the filtered scans."""
    for n in range(8):
        for w in tc.all_perms(n):
            if len(oracles.perm_indecomposables(w)) == 1:
                assert (w in hm._sections(n)[1]) == \
                    oracles.component_in_section_image(w), w
        assert tuple(hm._script_sets(n)[1]) == oracles.script_s(n)
        assert hm.script_s_prime(n) == oracles.script_s_prime(n)


def test_classify_matches_the_components():
    """One cut scan per permutation against its standardized components,
    the 132 test of the last and the initial run in the section image."""
    for n in range(9):
        for w in tc.all_perms(n):
            assert hm._classify(w) == oracles.classify(w), w


def test_series_quotient_counts_script_s_prime():
    order = 8
    quotient = se.quotient(se.series("S", order), se.series("M", order))
    assert quotient == tuple(
        len(hm.script_s_prime(n)) for n in range(order + 1))


# ---------------------------------------------------------------------------
# the Hopf-module reports (each can fail: ``test_must_fail``)


@pytest.mark.parametrize("k", [3, 4])
def test_plus_module_report_drops_cancelled_terms(monkeypatch, k):
    """An extra term in the action of one pair of total degree ``k`` keeps
    the law when it is a restricted coinvariant ``v``.  ``v`` has a
    negative coefficient, so its coaction, summed term by term into the
    left side, cancels to explicit zeros that the right side lacks: the
    report stays OK only because it compares the sums without their zero
    coefficients.  A plain basis vector as the extra term breaks the law."""
    b_star = tc.all_bileveled(k)[0]
    v = next(v for v in (ha.to_F(Mb("M", b0)) for b0 in hm.b_basis(k))
             if min(v.terms.values()) < 0)
    action = hm.plus_action

    def plus_action_with(extra):
        def patched(a, h):
            image = action(a, h)
            if a == F("M", b_star) and h == F("Y", tc.LEAF):
                return image + extra
            return image
        return patched

    monkeypatch.setattr(hm, "plus_action", plus_action_with(v))
    assert hm.plus_module_verify(k)["ok"]
    c = tc.all_bileveled(k)[1]
    monkeypatch.setattr(hm, "plus_action", plus_action_with(F("M", c)))
    report = hm.plus_module_verify(k)
    assert not report["ok"]
    assert (tc.format_bileveled(b_star), tc.format_tree(tc.LEAF)) \
        in report["violations"]


def test_hopf_module_reports_match_their_oracles(monkeypatch):
    """Both reports pass at every total degree below 6.  Each image
    computed once per call gives the whole report, its violations in
    order, that recomputing every image for each case gives: on the true
    structure and on one with a dropped action term."""
    for n in range(6):
        plus, bbslash = hm.plus_module_verify(n), hm.bbslash_verify(n)
        assert plus["ok"] and bbslash["ok"], n
        assert plus == oracles.plus_module_verify(n)
        assert bbslash == oracles.bbslash_verify(n)
    monkeypatch.setattr(hm, "plus_action", drop_first_term(hm.plus_action))
    failing = 0
    for n in range(5):
        report = hm.plus_module_verify(n)
        assert report == oracles.plus_module_verify(n)
        failing += not report["ok"]
    assert failing
