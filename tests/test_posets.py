"""Orders on the three families, Mobius functions with independent chain
oracles, cover classification, and the fiber-projection properties."""

import pytest

from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc

from oracles import (chain_sum, chain_sum_meeting_all_blocks, hall_mobius,
                     m_covers_by_types)


# ---------------------------------------------------------------------------
# weak order


def reachability(n):
    """Transitive closure of the cover relation, computed independently."""
    reach = {}
    for w in tc.all_perms(n):
        seen, stack = {w}, [w]
        while stack:
            x = stack.pop()
            for y in po.weak_covers(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[w] = seen
    return reach


def test_weak_order_matches_cover_closure():
    for n in range(5):
        reach = reachability(n)
        for u in tc.all_perms(n):
            for v in tc.all_perms(n):
                assert po.weak_leq(u, v) == (v in reach[u])


def test_weak_covers_of_identity():
    assert set(po.weak_covers((1, 2, 3, 4))) == {
        (2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)}


def test_weak_covers_add_one_inversion():
    for n in range(2, 6):
        for w in tc.all_perms(n):
            for v in po.weak_covers(w):
                extra = po.inversion_set(v) - po.inversion_set(w)
                assert po.inversion_set(w) < po.inversion_set(v)
                assert len(extra) == 1


# ---------------------------------------------------------------------------
# Tamari order


def test_tamari_increasing_chain_on_three_nodes():
    left_comb = tc.parse_tree("(((..).).)")
    right_comb = tc.parse_tree("(.(.(..)))")

    def saturated_chains(t):
        covers = po.tamari_covers(t)
        if not covers:
            return [[t]]
        return [[t] + rest for c in covers for rest in saturated_chains(c)]

    chains = saturated_chains(left_comb)
    assert all(chain[-1] == right_comb for chain in chains)
    # a saturated chain with three covers runs through the middle element
    assert any(len(chain) == 4 for chain in chains)


def test_tamari_extremes():
    for n in range(1, 6):
        poset = po.family_poset("Y", n)
        bottoms = [t for t in poset.elements
                   if all(poset.leq(t, s) for s in poset.elements)]
        tops = [t for t in poset.elements
                if all(poset.leq(s, t) for s in poset.elements)]
        assert len(bottoms) == 1 and len(tops) == 1
        # bottom is the all-left comb, top the all-right comb
        assert tc.nodes(bottoms[0][1]) == 0
        assert tc.nodes(tops[0][0]) == 0


# ---------------------------------------------------------------------------
# the bi-leveled order and its covers


def test_m_covers_match_typed_generator():
    for n in range(6):
        covers = {}
        for x, c in po.family_poset("M", n).covers():
            covers.setdefault(x, set()).add(c)
        for b in tc.enumerate_family("M", n):
            typed = m_covers_by_types(b)
            assert set(typed) == covers.get(b, set()), b
            for c, kinds in typed.items():
                assert len(kinds) == 1, (b, c, kinds)


def test_fiber_extremes_not_order_preserving():
    """Degree-4 witnesses: comparable bi-leveled trees whose
    fiber maxima (respectively minima) are incomparable, so the projection
    from permutations is not a lattice congruence."""
    m_leq = po.family_poset("M", 4).leq
    b1, b2 = pj.beta((2, 1, 4, 3)), pj.beta((1, 2, 4, 3))
    assert m_leq(b2, b1) and b1 != b2
    max1 = max(pj.beta_fiber(b1), key=lambda w: len(po.inversion_set(w)))
    max2 = (1, 3, 4, 2)
    assert max2 in pj.beta_fiber(b2)
    assert all(po.weak_leq(w, max2) for w in pj.beta_fiber(b2))
    assert max1 == (2, 1, 4, 3)
    assert not po.weak_leq(max1, max2) and not po.weak_leq(max2, max1)

    b3, b4 = pj.beta((3, 2, 4, 1)), pj.beta((2, 3, 4, 1))
    assert m_leq(b4, b3) and b3 != b4
    min3 = (3, 1, 4, 2)
    assert min3 in pj.beta_fiber(b3)
    assert all(po.weak_leq(min3, w) for w in pj.beta_fiber(b3))
    min4 = (2, 3, 4, 1)
    assert pj.beta_fiber(b4) == (min4,)
    assert not po.weak_leq(min3, min4) and not po.weak_leq(min4, min3)


def test_type_iii_cover_chain_example():
    """A degree-7 cover of the third kind whose section values are joined by a
    four-step chain in the weak order."""
    w_b = tc.parse_perm("4357126")
    w_prime = tc.parse_perm("4367125")
    w_prime_up = tc.parse_perm("5367124")
    w_c = tc.parse_perm("5467123")
    b, c = pj.beta(w_b), pj.beta(w_prime_up)
    assert pj.iota(b) == w_b and pj.iota(c) == w_c
    # it is a cover of the third kind: same tree, one mark dropped
    assert b.tree == c.tree and len(b.ideal - c.ideal) == 1
    typed = m_covers_by_types(b)
    assert typed.get(c) == ("iii",)
    m_leq = po.family_poset("M", 7).leq
    others = [z for z in tc.all_bileveled(7)
              if m_leq(b, z) and m_leq(z, c)]
    assert set(others) == {b, c}
    # a connecting chain
    assert po.weak_leq(w_b, w_prime)
    assert w_prime_up in po.weak_covers(w_prime)
    assert po.weak_leq(w_prime_up, w_c)
    assert pj.beta(w_prime) == b and pj.beta(w_prime_up) == c


# ---------------------------------------------------------------------------
# Mobius functions


@pytest.mark.parametrize("family,n", [
    ("S", 4), ("Y", 4), ("Y", 5), ("M", 4)])
def test_mobius_against_chain_oracle(family, n):
    poset = po.family_poset(family, n)
    for x in poset.elements:
        for y in poset.elements:
            assert poset.mobius(x, y) == hall_mobius(poset, x, y)


def test_mobius_row_sums_vanish():
    for family, n in [("S", 4), ("M", 4), ("Y", 5)]:
        poset = po.family_poset(family, n)
        for x in poset.elements:
            for y in poset.elements:
                if poset.leq(x, y) and x != y:
                    total = sum(
                        poset.mobius(x, z) for z in poset.elements
                        if poset.leq(x, z) and poset.leq(z, y))
                    assert total == 0


def test_chain_sum_is_one_on_intervals():
    for family, n in [("S", 3), ("Y", 4), ("M", 3)]:
        poset = po.family_poset(family, n)
        for x in poset.elements:
            for y in poset.elements:
                if poset.leq(x, y):
                    interval = po.FinitePoset(
                        poset.interval(x, y), leq=poset.leq)
                    assert chain_sum(interval) == 1


# ---------------------------------------------------------------------------
# interval retract and the Mobius comparison


def test_interval_retract_through_degree_five():
    for n in range(6):
        report = po.interval_retract_verify(n)
        assert report["ok"], report["violations"][:3]


def test_fibers_factor_into_blocks():
    """Inside one fiber, chains meeting every block of the monotone block
    partition contribute (-1)^(number of blocks), exercising the chain
    argument behind the Mobius comparison."""
    for n in range(1, 5):
        sposet = po.family_poset("S", n)
        for b in tc.enumerate_family("M", n):
            fiber = pj.beta_fiber(b)
            sub = po.FinitePoset(fiber, leq=po.weak_leq)
            # one-block partition: the whole fiber
            assert chain_sum_meeting_all_blocks(sub, [set(fiber)]) == 1


def test_fiberwise_mobius_comparison():
    for n in range(5):
        report = po.fiberwise_mobius_verify(n)
        assert report["ok"], report["violations"][:3]


# ---------------------------------------------------------------------------
# the fast paths against the definitions they replace


def leq_poset(family, n):
    """The order built by testing the defining relation on every pair."""
    elements = tc.enumerate_family(family, n)
    if family == "S":
        return po.FinitePoset(elements, leq=po.weak_leq)
    tamari = po.family_poset("Y", n)
    return po.FinitePoset(
        elements,
        leq=lambda b, c: tamari.leq(b.tree, c.tree) and b.ideal >= c.ideal)


@pytest.mark.parametrize("family,top", [("S", 6), ("M", 7)])
def test_cover_built_orders_match_definition(family, top):
    for n in range(top + 1):
        fast, slow = po.family_poset(family, n), leq_poset(family, n)
        assert fast.elements == slow.elements
        assert fast.up == slow.up and fast.down == slow.down, n
        assert fast.covers() == slow.covers(), n


@pytest.mark.parametrize("family,top", [("S", 5), ("Y", 6), ("M", 6)])
def test_mobius_rows_match_chain_oracle(family, top):
    for n in range(top + 1):
        fast = po.family_poset(family, n)
        # the Tamari order is defined by its covers, so it is its own oracle
        slow = fast if family == "Y" else leq_poset(family, n)
        for x in fast.elements:
            for y in fast.elements:
                assert fast.mobius(x, y) == hall_mobius(slow, x, y), (x, y)


def test_beta_fibers_match_scan():
    for n in range(7):
        images = {w: pj.beta(w) for w in tc.all_perms(n)}
        assert set(pj.beta_fibers(n)) == set(tc.all_bileveled(n))
        for b in tc.all_bileveled(n):
            scan = tuple(sorted(w for w, c in images.items() if c == b))
            assert pj.beta_fiber(b) == scan


def test_interval_retract_reports_a_bad_fiber(monkeypatch):
    top = pj.beta((3, 2, 1))
    fiber = pj.beta_fiber
    monkeypatch.setattr(pj, "beta_fiber", lambda b: fiber(b) + (
        ((1, 2, 3),) if b == top else ()))
    report = po.interval_retract_verify(3)
    assert report["violations"] == [
        ("fiber-not-interval", tc.format_bileveled(top))]


def test_fiberwise_mobius_reports_a_bad_row(monkeypatch):
    mposet = po.family_poset("M", 3)
    row = dict(mposet.mobius_row(0))
    j = min(set(range(len(mposet))) - set(row))
    row[j] = 1
    monkeypatch.setitem(mposet._rows, 0, row)
    report = po.fiberwise_mobius_verify(3)
    x, y = mposet.elements[0], mposet.elements[j]
    assert report["violations"] == [
        (tc.format_bileveled(x), tc.format_bileveled(y), 1, 0)]


# ---------------------------------------------------------------------------
# DOT export


def test_hasse_dot_deterministic_and_sized():
    first = po.hasse_dot("Y", 3)
    assert first == po.hasse_dot("Y", 3)
    assert first.count("->") == sum(
        len(po.tamari_covers(t)) for t in tc.all_trees(3))
    assert po.hasse_dot("M", 2).count("->") == 1
