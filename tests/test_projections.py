"""Projections between the families, their fibers, and the canonical
order-preserving section into the permutations."""

import pytest
from hypothesis import given, strategies as st

from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc

import oracles


def perms(max_len=6):
    return st.integers(0, max_len).flatmap(
        lambda n: st.sampled_from(tc.all_perms(n)))


def bileveleds(max_nodes=5):
    return st.integers(0, max_nodes).flatmap(
        lambda n: st.sampled_from(tc.all_bileveled(n)))


# ---------------------------------------------------------------------------
# the shape map and its fiber extremes


def test_tau_display():
    assert pj.tau((3, 4, 2, 1)) == tc.parse_tree("((..)(.(..)))")
    assert pj.tau(()) == tc.LEAF
    assert pj.tau((1,)) == ((), ())


@given(perms())
def test_phi_after_beta_is_tau(w):
    assert pj.phi(pj.beta(w)) == pj.tau(w)


def test_tau_fiber_three_nodes():
    t = tc.parse_tree("((..)(..))")
    assert oracles.tau_fiber(t) == ((1, 3, 2), (2, 3, 1))
    assert pj.min_perm(t) == (1, 3, 2)
    assert pj.max_perm(t) == (2, 3, 1)


def test_tau_fiber_extremes_and_avoidance():
    for n in range(1, 6):
        for t in tc.all_trees(n):
            fiber = oracles.tau_fiber(t)
            mn, mx = pj.min_perm(t), pj.max_perm(t)
            assert mn in fiber and mx in fiber
            assert all(po.weak_leq(mn, w) and po.weak_leq(w, mx)
                       for w in fiber)
            # the extremes are the unique avoiders in the fiber
            assert [w for w in fiber if oracles.avoids(w, (2, 3, 1))] == [mn]
            assert [w for w in fiber if oracles.avoids(w, (1, 3, 2))] == [mx]


def test_pattern_scans_match_standardizing_every_subsequence():
    for n in range(7):
        for w in tc.all_perms(n):
            for p in pj.PINNED_PATTERNS:
                assert pj.avoids_pinned(w, p) \
                    == oracles.avoids_pinned(w, p), (w, p)
            assert pj.avoids_132(w) == oracles.avoids(w, (1, 3, 2)), w


def test_tau_fibers_partition_permutations():
    for n in range(6):
        total = sum(len(oracles.tau_fiber(t)) for t in tc.all_trees(n))
        assert total == len(tc.all_perms(n))


# ---------------------------------------------------------------------------
# the bi-leveled projection


@given(perms())
def test_marked_positions_hold_large_values(w):
    marks = pj.t_set(w)
    if w:
        assert 1 in marks
        assert marks == frozenset(
            i for i in range(1, len(w) + 1) if w[i - 1] >= w[0])
    assert pj.beta(w) == tc.BiLeveledTree(pj.tau(w), marks)


@given(perms())
def test_beta_lands_in_admissible_marks(w):
    b = pj.beta(w)
    assert tc.is_admissible_ideal(b.tree, b.ideal)


def test_beta_fiber_six_element_example():
    """A degree-7 fiber with six elements, its weak-order extremes,
    and the section value strictly inside."""
    words = [tc.parse_perm(s) for s in
             ["3471526", "3571426", "3671425",
              "3472516", "3572416", "3672415"]]
    b = pj.beta(words[0])
    assert b == tc.parse_bileveled("(((..).)(((..)(..)).));{1,2,3,5,7}")
    assert set(pj.beta_fiber(b)) == set(words)
    mn = tc.parse_perm("3471526")
    mx = tc.parse_perm("3672415")
    assert all(po.weak_leq(mn, w) and po.weak_leq(w, mx) for w in words)
    assert pj.iota(b) == tc.parse_perm("3472516")
    assert pj.iota(b) not in (mn, mx)


def test_beta_fibers_are_weak_order_intervals():
    for n in range(6):
        for b in tc.all_bileveled(n):
            fiber = pj.beta_fiber(b)
            mn = [w for w in fiber if all(po.weak_leq(w, x) for x in fiber)]
            mx = [w for w in fiber if all(po.weak_leq(x, w) for x in fiber)]
            assert len(mn) == 1 and len(mx) == 1
            between = [w for w in tc.all_perms(n)
                       if po.weak_leq(mn[0], w) and po.weak_leq(w, mx[0])]
            assert sorted(between) == list(fiber)


# ---------------------------------------------------------------------------
# the section


@given(bileveleds())
def test_iota_is_a_section(b):
    assert pj.beta(pj.iota(b)) == b


def iota_matches_the_oracle(degrees):
    for n in degrees:
        for b in tc.all_bileveled(n):
            assert pj.iota(b) == oracles.iota(b), tc.format_bileveled(b)


def test_iota_matches_the_forest_form_oracle():
    iota_matches_the_oracle(range(8))


@pytest.mark.slow
def test_iota_matches_the_forest_form_oracle_through_degree_9():
    iota_matches_the_oracle(range(8, 10))


def test_iota_eleven_letter_display():
    w = tc.parse_perm("7,8,6,11,4,5,9,10,2,3,1")
    assert pj.iota(pj.beta(w)) == w


def test_iota_is_order_preserving():
    for n in range(6):
        for b, c in po.family_poset("M", n).covers():
            assert po.weak_leq(pj.iota(b), pj.iota(c))


def test_iota_characterized_by_pinned_patterns():
    for n in range(6):
        for b in tc.all_bileveled(n):
            hits = [w for w in pj.beta_fiber(b)
                    if all(pj.avoids_pinned(w, p)
                           for p in pj.PINNED_PATTERNS)]
            assert hits == [pj.iota(b)]


def test_beta_max_is_fiber_top():
    for n in range(1, 6):
        for t in tc.all_trees(n):
            top = pj.beta_max(t)
            assert top.tree == t
            fibers = [b for b in tc.all_bileveled(n) if b.tree == t]
            assert all(po.family_poset("M", n).leq(b, top) for b in fibers)
            assert pj.iota(top) == pj.max_perm(t)


def test_fiber_top_is_the_maximum_over_its_tree():
    for n in range(6):
        m_leq = po.family_poset("M", n).leq
        for b in tc.all_bileveled(n):
            above = [c for c in tc.all_bileveled(n)
                     if c.tree == b.tree and m_leq(b, c)]
            assert pj.is_fiber_top(b) == (above == [b])
