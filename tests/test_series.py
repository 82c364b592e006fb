"""The enumerating series, their exact quotients, and the identities
between them, cross-checked against exhaustive generation."""

from math import comb

import pytest

import oracles
from oracles import compose, product, shift
from treesym import cli
from treesym import hopf_modules as hm
from treesym import series as se
from treesym import trees_core as tc

N = 12


# ---------------------------------------------------------------------------
# division


def test_quotient_times_denominator_round_trips():
    s = se.series("S", N)
    y = se.series("Y", N)
    assert product(se.quotient(s, y), y) == s


def test_quotient_needs_constant_term_one():
    """Both the tuple and the coefficient iterator refuse at the call,
    before any coefficient is asked for."""
    for constant in (0, 2):
        with pytest.raises(ValueError):
            se.quotient(se.series("S", 4), (constant, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            se.quotient_terms(se.series("S", 4), (constant, 1, 0, 0, 0))


def test_composition_needs_zero_constant_term():
    with pytest.raises(ValueError):
        compose(se.series("Y", 4), se.series("Y", 4))


def test_exact_quotients_keep_integer_coefficients():
    """Every coefficient of every reported quotient is an int, and the
    report's ``"coeffs"`` are the ones it read: the whole quotient if it is
    nonnegative, else its start through the first negative coefficient."""
    report = se.quotient_sign_report(N)
    for (top, bottom), info in report.items():
        q = se.quotient(se.series(top, N), se.series(bottom, N))
        assert all(type(c) is int for c in q)
        read = len(q) if info["nonnegative"] else info["first_negative"] + 1
        assert info["coeffs"] == q[:read]
        assert all(type(c) is int for c in info["coeffs"])


# ---------------------------------------------------------------------------
# the four series and their coefficients


def test_series_coefficients_match_generation():
    for name, fam in [("S", "S"), ("Y", "Y"), ("M", "M")]:
        s = se.series(name, 5)
        for n in range(6):
            assert s[n] == len(tc.enumerate_family(fam, n))
    mp = se.series("M+", 5)
    assert mp[0] == 0
    assert mp[1:] == se.series("M", 5)[1:]


def test_known_initial_coefficients():
    assert se.series("Y", 5) == (1, 1, 2, 5, 14, 42)
    assert se.series("M", 7) == (1, 1, 2, 6, 21, 80, 322, 1348)
    assert se.series("S", 5) == (1, 1, 2, 6, 24, 120)


def test_catalan_recurrence_matches_binomial_formula():
    """The forward loop gives ``binom(2n, n) / (n + 1)`` up to the largest
    ``series --order``."""
    for n in range(cli.MAX_ORDER + 1):
        assert se.catalan(n) == comb(2 * n, n) // (n + 1)
    with pytest.raises(ValueError):
        se.catalan(-1)


def test_bileveled_count_recurrence():
    """The forward loop gives the values of the recurrence through its
    memo, up to the largest ``series --order``."""
    for n in range(cli.MAX_ORDER + 1):
        assert se.a_number(n) == oracles.a_number(n)
    with pytest.raises(ValueError):
        se.a_number(-1)


def test_b_sequence_closed_formula_matches_generation():
    bs = oracles.b_sequence(7)
    assert bs == (1, 1, 3, 11, 44, 185, 804)
    for n in range(1, 7):
        assert bs[n - 1] == len(hm.b_basis(n))
    with pytest.raises(ValueError):
        oracles.b_sequence(0)


# ---------------------------------------------------------------------------
# identities between the series


def test_bileveled_series_functional_equation():
    """M = 1 + qY(q) Y(qY(q))."""
    y = se.series("Y", N)
    assert se.series("M", N) == (1,) + product(y, compose(y, shift(y)))[:N]


def test_positive_part_is_self_composition():
    q_y = shift(se.series("Y", N))
    assert se.series("M+", N) == compose(q_y, q_y)


def test_reciprocal_of_tree_series():
    y = se.series("Y", N)
    one = (1,) + (0,) * N
    assert se.quotient(one, y) == (1,) + tuple(-c for c in y[:N])


def test_bileveled_over_trees_counts_indecomposables():
    q = se.quotient(se.series("M", N), se.series("Y", N))
    bs = oracles.b_sequence(N)
    assert q[0] == 1
    for n in range(1, N + 1):
        assert q[n] == bs[n - 1] - se.catalan(n - 1)


def test_positive_part_over_trees_counts_all_indecomposables():
    q = se.quotient(se.series("M+", N), se.series("Y", N))
    assert q == (0,) + oracles.b_sequence(N)


def test_permutations_over_trees_counts_big_index_set():
    q = se.quotient(se.series("S", 6), se.series("Y", 6))
    assert q == tuple(len(oracles.script_s(n)) for n in range(7))


# ---------------------------------------------------------------------------
# the sign report


def test_quotient_sign_report():
    report = se.quotient_sign_report(N)
    # denominators with no constant term are skipped
    assert not any(bottom == "M+" for _top, bottom in report)
    assert len(report) == 9
    for pair, info in report.items():
        assert info["nonnegative"] == (info["first_negative"] is None), pair
    # the one trivial pair is determined by M = 1 + M+ and stays nonnegative
    assert report[("M+", "M")]["trivial"]
    assert report[("M+", "M")]["nonnegative"]


def _signs_off_the_quotient(top, bottom, order):
    """``(nonnegative, first_negative)`` read off the whole quotient."""
    q = se.quotient(se.series(top, order), se.series(bottom, order))
    first_negative = next((n for n, c in enumerate(q) if c < 0), None)
    return first_negative is None, first_negative


def _report_signs(order):
    return {pair: (info["nonnegative"], info["first_negative"])
            for pair, info in se.quotient_sign_report(order).items()}


def test_sign_report_stops_where_the_whole_quotient_says():
    """The report reads a quotient only through its first negative
    coefficient; its verdict is the one the whole quotient gives, at every
    order from 0 to 60 and at the benchmark's order 300."""
    for order in list(range(61)) + [300]:
        report = _report_signs(order)
        assert sorted(report) == sorted(se.QUOTIENTS)
        for pair in se.QUOTIENTS:
            assert report[pair] == _signs_off_the_quotient(*pair, order), \
                (pair, order)


@pytest.mark.parametrize("order", [0, 1, 12, 60])
def test_sign_report_finds_a_negative_last_coefficient(monkeypatch, order):
    """A numerator whose quotient by Y is nonnegative except for its last
    coefficient: the report reads to the end and names index ``order``."""
    y = se.series("Y", order)
    num = product((1,) * order + (-1,), y)
    monkeypatch.setitem(se.SERIES, "M+", num.__getitem__)
    info = se.quotient_sign_report(order)[("M+", "Y")]
    assert info["first_negative"] == order
    assert not info["nonnegative"]
    assert info["coeffs"] == (1,) * order + (-1,)
    for pair in (("M+", "M"), ("M+", "S"), ("M+", "Y")):
        assert _report_signs(order)[pair] == \
            _signs_off_the_quotient(*pair, order), pair


@pytest.mark.parametrize("order", [0, 1, 12, 60])
def test_sign_report_finds_a_negative_first_coefficient(monkeypatch, order):
    """A numerator with constant term -1: every quotient of it is negative
    at index 0, and the report reads nothing further."""
    monkeypatch.setitem(se.SERIES, "M+", lambda n: -1 if n == 0 else 0)
    report = se.quotient_sign_report(order)
    for pair in (("M+", "M"), ("M+", "S"), ("M+", "Y")):
        assert report[pair]["first_negative"] == 0, pair
        assert not report[pair]["nonnegative"]
        assert report[pair]["coeffs"] == (-1,)
        assert _signs_off_the_quotient(*pair, order) == (False, 0)
