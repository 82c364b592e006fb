"""The two module/comodule structures of the bi-leveled family over the
trees, their coinvariants, and the final graded bijection."""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from treesym import cli
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
            left = oracles.tensor_apply(once, hm.plus_coaction, ident)
            right = oracles.tensor_apply(once, ident, ha.comul_F)
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
            closed = oracles.plus_coaction_M_closed(b)
            assert closed == TensorComb(("M", "Y"), "M", {(b, tc.LEAF): 1})


@pytest.mark.parametrize("restricted", [True, False])
def test_coinvariant_kernel_equals_the_sympy_solve(restricted):
    """The back-substituted vectors are sympy's, and the kernel's trees are
    the last terms of sympy's vectors in canonical order."""
    pytest.importorskip("sympy")
    from oracles import fraction_coinvariant_kernel, sympy_coinvariant_kernel
    for n in range(6):
        solved = sympy_coinvariant_kernel(n, restricted)
        assert fraction_coinvariant_kernel(n, restricted) == solved
        index = {b: i for i, b in enumerate(tc.enumerate_family("M", n))}
        assert hm.coinvariant_kernel(n, restricted) == \
            [max(vec.terms, key=index.get) for vec in solved]


@pytest.mark.parametrize("restricted", [True, False])
def test_coinvariant_kernel_equals_the_rational_vectors(restricted):
    """One back-substituted coinvariant per free column: 1 there and 0 at
    the other free columns."""
    from oracles import fraction_coinvariant_kernel
    coaction = hm.plus_coaction if restricted else ha.coaction_rho
    for n in range(7):
        kernel = hm.coinvariant_kernel(n, restricted)
        vectors = fraction_coinvariant_kernel(n, restricted)
        assert len(vectors) == len(kernel)
        for f, vec in zip(kernel, vectors):
            assert [vec.terms.get(b, 0) for b in kernel] == \
                [int(b == f) for b in kernel]
            assert coaction(vec) == oracles.tensor_of(vec, F("Y", tc.LEAF))


ECHELON_CASES = [
    # the second row meets the first row's pivot and still adds rank
    [{0: 1, 1: 1}, {0: 1, 2: 1}],
    # a pivot entry other than 1 scales the row it reduces
    [{0: 2, 1: 1}, {0: 3, 2: 1}, {0: 6, 1: 3, 2: 2}],
    # rank comes only after two reductions, and one row is dependent
    [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 7}, {0: 3, 1: 6, 2: 10, 3: 1},
     {0: 1, 1: 2, 2: 3}],
    # a row that is a multiple of a pivot row, an empty row, a zero row
    [{1: 4, 3: -6}, {1: 2, 3: -3}, {}, {0: 0, 2: 0}],
]


def echelon_batch(count: int, seed: int) -> list:
    """``count`` sparse integer matrices of up to six rows and columns,
    entries from -3 to 3, drawn from ``seed``."""
    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        width = rng.randint(1, 6)
        batch.append([{c: rng.randint(-3, 3) for c in range(width)
                       if rng.random() < 0.6}
                      for _ in range(rng.randint(1, 6))])
    return batch


def test_echelon_pivots_match_the_exact_elimination():
    """The pivot columns of :func:`hm._echelon` are those of the
    rational reduced row echelon form, on matrices whose later rows meet
    an existing pivot and still carry rank; each kept row is primitive,
    positive at its pivot, its least column, and lies in the row space."""
    carried = 0
    for rows in ECHELON_CASES + echelon_batch(300, seed=20091):
        pivots = hm._echelon([dict(row) for row in rows])
        assert sorted(pivots) == oracles.pivot_columns(rows), rows
        for col, row in pivots.items():
            assert min(row) == col and row[col] > 0, rows
            assert math.gcd(*row.values()) == 1, rows
            assert len(oracles.pivot_columns(rows + [row])) == len(pivots)
        firsts = {min(c for c, x in row.items() if x)
                  for row in rows if any(row.values())}
        carried += len(pivots) > len(firsts)
    assert carried >= 20


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


def one_run(suite: str, through: int) -> dict:
    """The reports of one run's checker of ``suite``, degree by degree
    from the suite's first degree through ``through``, as ``verify``
    builds and calls it."""
    checker, first, _ = cli.SUITES[suite]
    check = checker()
    return {n: check(n) for n in range(first, through + 1)}


def test_hopf_module_reports_match_their_oracles(monkeypatch):
    """At every degree from 0 through 5, the report of that degree alone
    is the report that recomputes every image for each case, and each
    degree's report from one run's checker, whose images of lower
    degrees were computed at earlier degrees, is the report of that
    degree alone: on the true structure, where every report passes, and
    with the first term dropped from every multi-term action or basis
    change, where the suite of that map fails and a wrong image of a
    lower degree has to show the same way in all three."""
    for mutation, failing in [(None, None),
                              ((hm, "plus_action"), "hopf-module-plus"),
                              ((ha, "to_F"), "hopf-module-bbslash")]:
        with monkeypatch.context() as patch:
            if mutation is not None:
                owner, name = mutation
                patch.setattr(owner, name,
                              drop_first_term(getattr(owner, name)))
            for suite, alone, oracle in [
                    ("hopf-module-plus", hm.plus_module_verify,
                     oracles.plus_module_verify),
                    ("hopf-module-bbslash", hm.bbslash_verify,
                     oracles.bbslash_verify)]:
                reports = [alone(n) for n in range(6)]
                for n, report in enumerate(reports):
                    assert report == oracle(n), (suite, n)
                run = one_run(suite, 5)
                for n, report in run.items():
                    assert report == reports[n], (suite, n)
                assert all(r["ok"] for r in run.values()) \
                    == (suite != failing), (mutation, suite)


IMAGE_MAPS = ((hm, "plus_action"), (hm, "plus_coaction"), (ha, "mul_F"),
              (ha, "comul_F"), (ha, "to_F"), (ha, "coaction_rho"))


@pytest.mark.parametrize("suite,maps", [
    ("hopf-module-plus", {"plus_action", "plus_coaction", "mul_F",
                          "comul_F"}),
    ("hopf-module-bbslash", {"to_F", "coaction_rho"})],
    ids=["hopf-module-plus", "hopf-module-bbslash"])
def test_each_image_is_computed_once_per_run(monkeypatch, capsys, suite,
                                              maps):
    """Through degree 5, one ``verify`` run calls each map that computes
    an image, through its module attribute, once per distinct argument:
    an image of a lower degree is kept for the later degrees."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    for owner, name in IMAGE_MAPS:
        calls[name] = []
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert cli.run(["verify", "--suite", suite, "--n", "5"]) == 0
    assert capsys.readouterr().out.startswith("OK:")
    assert {name for name, args in calls.items() if args} == maps
    for name, args in calls.items():
        assert len(args) == len(set(args)), name
