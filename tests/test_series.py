"""Exact truncated series arithmetic and the enumerating-series
identities, cross-checked against exhaustive generation."""

from fractions import Fraction

import pytest

import oracles
from treesym import cli
from treesym import hopf_modules as hm
from treesym import series as se
from treesym import trees_core as tc
from treesym.series import TruncatedSeries

N = 12


# ---------------------------------------------------------------------------
# arithmetic


def test_quotient_times_denominator_round_trips():
    s = se.series("S", N)
    y = se.series("Y", N)
    assert ((s / y) * y).coeffs == s.coeffs


def test_division_by_zero_constant_term_rejected():
    with pytest.raises(ZeroDivisionError):
        se.series("S", 4) / se.series("M+", 4)


def test_composition_needs_zero_constant_term():
    with pytest.raises(ValueError):
        se.series("Y", 4).compose(se.series("Y", 4))


def test_rational_coefficients_kept_exact():
    one = TruncatedSeries.one(3)
    two = TruncatedSeries((2, 1, 0, 0))
    q = one / two
    assert q.coeffs[0] == Fraction(1, 2)
    assert (q * two).coeffs == one.coeffs


def test_series_is_an_immutable_value():
    a = TruncatedSeries((1, 2, 3))
    b = TruncatedSeries((1, 2, 3))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, TruncatedSeries((1, 2, 4))}) == 2
    assert a != TruncatedSeries((1, 2)) and a != (1, 2, 3)
    assert se.series("Y", 4) == TruncatedSeries((1, 1, 2, 5, 14))
    with pytest.raises(AttributeError):
        a.coeffs = (0,)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.coeffs
    assert a.coeffs == (1, 2, 3)


def test_exact_quotients_keep_integer_coefficients():
    q = se.series("S", N) / se.series("Y", N)
    assert all(type(c) is int for c in q.coeffs)
    halves = TruncatedSeries((1, 3, 0)) / TruncatedSeries((2, 0, 0))
    assert halves.coeffs == (Fraction(1, 2), Fraction(3, 2), 0)
    assert [type(c) for c in halves.coeffs] == [Fraction, Fraction, int]


# ---------------------------------------------------------------------------
# the four series and their coefficients


def test_series_coefficients_match_generation():
    for name, fam in [("S", "S"), ("Y", "Y"), ("M", "M")]:
        s = se.series(name, 5)
        for n in range(6):
            assert s[n] == len(tc.enumerate_family(fam, n))
    mp = se.series("M+", 5)
    assert mp[0] == 0
    assert mp.coeffs[1:] == se.series("M", 5).coeffs[1:]


def test_known_initial_coefficients():
    assert se.series("Y", 5).coeffs == (1, 1, 2, 5, 14, 42)
    assert se.series("M", 7).coeffs == (1, 1, 2, 6, 21, 80, 322, 1348)
    assert se.series("S", 5).coeffs == (1, 1, 2, 6, 24, 120)


def test_bileveled_count_recurrence():
    """The forward loop gives the values of the recurrence through its
    memo, up to the largest ``series --order``."""
    for n in range(cli.MAX_ORDER + 1):
        assert se.a_number(n) == oracles.a_number(n)
    with pytest.raises(ValueError):
        se.a_number(-1)


def test_b_sequence_closed_formula_matches_generation():
    bs = se.b_sequence(7)
    assert bs == (1, 1, 3, 11, 44, 185, 804)
    for n in range(1, 7):
        assert bs[n - 1] == len(hm.b_basis(n))
    with pytest.raises(ValueError):
        se.b_sequence(0)


# ---------------------------------------------------------------------------
# identities between the series


def test_bileveled_series_functional_equation():
    y = se.series("Y", N)
    q_y = y.shift()  # qY(q)
    lhs = se.series("M", N)
    rhs = TruncatedSeries.one(N) + (q_y * y.compose(q_y))
    assert lhs.coeffs == rhs.coeffs


def test_positive_part_is_self_composition():
    y = se.series("Y", N)
    q_y = y.shift()
    assert se.series("M+", N).coeffs == q_y.compose(q_y).coeffs


def test_reciprocal_of_tree_series():
    y = se.series("Y", N)
    lhs = TruncatedSeries.one(N) / y
    rhs = TruncatedSeries.one(N) - y.shift()
    assert lhs.coeffs == rhs.coeffs


def test_bileveled_over_trees_counts_indecomposables():
    quotient = se.series("M", N) / se.series("Y", N)
    bs = se.b_sequence(N)
    assert quotient[0] == 1
    for n in range(1, N + 1):
        assert quotient[n] == bs[n - 1] - se.catalan(n - 1)


def test_positive_part_over_trees_counts_all_indecomposables():
    quotient = se.series("M+", N) / se.series("Y", N)
    bs = se.b_sequence(N)
    assert quotient[0] == 0
    for n in range(1, N + 1):
        assert quotient[n] == bs[n - 1]


def test_permutations_over_bileveled_counts_final_bijection_set():
    quotient = se.series("S", 7) / se.series("M", 7)
    assert quotient.coeffs == tuple(
        len(hm.script_s_prime(n)) for n in range(8))


def test_permutations_over_trees_counts_big_index_set():
    quotient = se.series("S", 6) / se.series("Y", 6)
    assert quotient.coeffs == tuple(
        len(hm.script_s(n)) for n in range(7))


# ---------------------------------------------------------------------------
# the sign report


def test_quotient_sign_report():
    report = se.quotient_sign_report(N)
    # denominators with no constant term are skipped
    assert not any(bottom == "M+" for _top, bottom in report)
    assert len(report) == 9
    for pair, info in report.items():
        if info["expected_nonnegative"]:
            assert info["nonnegative"], pair
        elif not info["trivial"]:
            assert not info["nonnegative"], pair
            assert info["first_negative"] is not None
    # the one trivial pair is determined by M = 1 + M+ and stays nonnegative
    assert report[("M+", "M")]["trivial"]
    assert report[("M+", "M")]["nonnegative"]
