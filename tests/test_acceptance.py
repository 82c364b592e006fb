"""End-to-end acceptance gate: each headline law, checked once,
exhaustively at desk scale with exact arithmetic.  The suite reports at
fixed degrees are golden records (``cli_golden.json``); cardinalities,
displays, validation and fast paths against their oracles are checked in
the module files."""

from treesym import hopf_algebra as ha
from treesym import hopf_modules as hm
from treesym import projections as pj
from treesym import series as se
from treesym import trees_core as tc
from treesym.hopf_algebra import F, Mb, LinComb

from oracles import compose, shift, unit


def test_04_hopf_axioms():
    ident = lambda a: a
    # associativity, all three families, total degree <= 5
    for family in "SMY":
        for n1 in range(1, 4):
            for n2 in range(1, 5 - n1):
                for n3 in range(1, 6 - n1 - n2):
                    for x in tc.enumerate_family(family, n1):
                        for y in tc.enumerate_family(family, n2):
                            for z in tc.enumerate_family(family, n3):
                                a, b, c = (F(family, e) for e in (x, y, z))
                                assert ha.mul_F(ha.mul_F(a, b), c) == \
                                    ha.mul_F(a, ha.mul_F(b, c))
    # coassociativity and counit, degree <= 6 (unary)
    for family in "SY":
        for n in range(7):
            for x in tc.enumerate_family(family, n):
                a = F(family, x)
                once = ha.comul_F(a)
                assert ha.tensor_apply(once, ha.comul_F, ident) == \
                    ha.tensor_apply(once, ident, ha.comul_F)
                counit = LinComb(family, "F", {
                    keys[1]: c for keys, c in once.terms.items()
                    if keys[0] == tc.FAMILIES[family].empty})
                assert counit == a
    for n in range(7):
        for x in tc.enumerate_family("M", n):
            a = F("M", x)
            once = ha.coaction_rho(a)
            assert ha.tensor_apply(once, ha.coaction_rho, ident) == \
                ha.tensor_apply(once, ident, ha.comul_F)
            counit = LinComb("M", "F", {
                keys[0]: c for keys, c in once.terms.items()
                if keys[1] == tc.FAMILIES["Y"].empty})
            assert counit == a
    # bialgebra compatibility and the comodule-algebra law, degree <= 5
    for n1 in range(1, 3):
        for n2 in range(1, 6 - n1):
            for family in "SY":
                for x in tc.enumerate_family(family, n1):
                    for y in tc.enumerate_family(family, n2):
                        a, b = F(family, x), F(family, y)
                        assert ha.comul_F(ha.mul_F(a, b)) == ha.tensor_mul(
                            ha.comul_F(a), ha.comul_F(b), ha.mul_F, ha.mul_F)
            for x in tc.enumerate_family("M", n1):
                for y in tc.enumerate_family("M", n2):
                    a, b = F("M", x), F("M", y)
                    assert ha.coaction_rho(ha.mul_F(a, b)) == ha.tensor_mul(
                        ha.coaction_rho(a), ha.coaction_rho(b),
                        ha.mul_F, ha.mul_F)


def test_05_projection_morphisms():
    # the shape map extends to a bialgebra morphism
    for n1 in range(1, 3):
        for n2 in range(1, 6 - n1):
            for x in tc.all_perms(n1):
                for y in tc.all_perms(n2):
                    a, b = F("S", x), F("S", y)
                    assert ha.lin_tau(ha.mul_F(a, b)) == \
                        ha.mul_F(ha.lin_tau(a), ha.lin_tau(b))
                    assert ha.tensor_apply(
                        ha.comul_F(ha.mul_F(a, b)), ha.lin_tau, ha.lin_tau
                    ) == ha.comul_F(ha.lin_tau(ha.mul_F(a, b)))
    # and factors through the two-step projection
    for n in range(6):
        for w in tc.all_perms(n):
            assert ha.lin_beta(F("S", w)).map_elements("Y", pj.phi) == \
                ha.lin_tau(F("S", w))


def test_06_second_basis_closed_forms():
    # closed coproducts
    for family in "SY":
        for n in range(6):
            for x in tc.enumerate_family(family, n):
                assert ha.comul_M_closed(family, x) == ha.tensor_apply(
                    ha.comul_F(ha.to_F(Mb(family, x))), ha.to_M, ha.to_M)
    # closed coactions (full and restricted)
    for n in range(6):
        for b in tc.enumerate_family("M", n):
            assert ha.rho_M_closed(b) == ha.tensor_apply(
                ha.coaction_rho(ha.to_F(Mb("M", b))), ha.to_M, ha.to_M)
            if n:
                assert hm.plus_coaction_M_closed(b) == ha.tensor_apply(
                    hm.plus_coaction(ha.to_F(Mb("M", b))), ha.to_M, ha.to_M)
    # the shape map on the second basis keeps only fiber maxima
    for n in range(6):
        for w in tc.all_perms(n):
            image = ha.to_M(ha.lin_tau(ha.to_F(Mb("S", w))))
            t = pj.tau(w)
            expected = Mb("Y", t) if w == pj.max_perm(t) \
                else LinComb("Y", "M", {})
            assert image == expected
    # fiber sums of second-basis vectors push forward to single vectors
    for n in range(6):
        for b in tc.enumerate_family("M", n):
            total = LinComb("S", "F", {})
            for w in pj.beta_fiber(b):
                total = total + ha.to_F(Mb("S", w))
            assert ha.to_M(ha.lin_beta(total)) == Mb("M", b)


def test_07_hopf_module_structures():
    # the transported structure on the full space, total degree <= 4; the
    # restricted one is checked by its report against its oracle
    # (test_hopf_modules)
    for n1 in range(0, 4):
        for n2 in range(0, 5 - n1):
            for c in tc.enumerate_family("M", n1):
                for t in tc.all_trees(n2):
                    fc, ft = F("M", c), F("Y", t)
                    assert ha.coaction_rho(hm.msym_action_F(fc, ft)) == \
                        ha.tensor_mul(
                            ha.coaction_rho(fc), ha.comul_F(ft),
                            hm.msym_action_F, ha.mul_F)


def test_08_coinvariants():
    for n in range(6):
        report = hm.coinvariants_verify(n)
        assert report["ok"], report["violations"]
        # the stated bases really are coinvariant
        for b in hm.b_basis(n):
            vec = ha.to_F(Mb("M", b))
            assert hm.plus_coaction(vec) == ha.tensor_of(vec, unit("Y"))
        for b in hm.b_prime_basis(n):
            vec = ha.to_F(Mb("M", b))
            assert ha.coaction_rho(vec) == ha.tensor_of(vec, unit("Y"))
        # solved kernels span the same space: every solution is coinvariant
        for vec in hm.coinvariant_kernel(n, restricted=True):
            assert hm.plus_coaction(vec) == ha.tensor_of(vec, unit("Y"))
        for vec in hm.coinvariant_kernel(n, restricted=False):
            assert ha.coaction_rho(vec) == ha.tensor_of(vec, unit("Y"))


def test_09_series_identities_and_signs():
    N = 12
    y = se.series("Y", N)
    assert se.quotient(se.series("M+", N), y) == shift(compose(y, shift(y)))
    report = se.quotient_sign_report(N)
    for pair, info in report.items():
        if pair in se.NONNEGATIVE_QUOTIENTS:
            assert info["nonnegative"], pair
        elif pair not in se.TRIVIAL_QUOTIENTS:
            assert info["first_negative"] is not None, pair


def test_10_final_bijection():
    for n in range(8):
        report = hm.kappa_verify(n)
        assert report["ok"], report["violations"][:3]
