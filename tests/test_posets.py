"""Orders on the three families, Mobius functions with independent chain
oracles, cover classification, and the fiber-projection properties."""

import os
import pathlib
import random
import subprocess
import sys
from functools import partial
from itertools import combinations

import pytest

from treesym import cli
from treesym import hopf_algebra as ha
from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc

import oracles
from oracles import (chain_sum, chain_sum_meeting_all_blocks, hall_mobius,
                     interval, is_interval_subset, leq, leq_order,
                     m_covers_by_types, row_from_order, tamari_covers)
from test_must_fail import (counted_row, first_rotation_dropped,
                            flipped_weak_value)


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
        covers = tamari_covers(t)
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
                   if all(leq(poset, t, s) for s in poset.elements)]
        tops = [t for t in poset.elements
                if all(leq(poset, s, t) for s in poset.elements)]
        assert len(bottoms) == 1 and len(tops) == 1
        # bottom is the all-left comb, top the all-right comb
        assert tc.nodes(bottoms[0][1]) == 0
        assert tc.nodes(tops[0][0]) == 0


# ---------------------------------------------------------------------------
# the bi-leveled order and its covers


def test_m_covers_match_typed_generator():
    for n in range(8):
        covers = {}
        for x, c in oracles.covers(po.family_poset("M", n)):
            covers.setdefault(x, set()).add(c)
        for b in tc.enumerate_family("M", n):
            typed = m_covers_by_types(b)
            assert set(typed) == covers.get(b, set()), b
            for c, kinds in typed.items():
                assert len(kinds) == 1, (b, c, kinds)


def test_cover_steps_are_of_the_kind_they_name(fresh_caches, monkeypatch):
    """Each step ``(j, kind)`` of ``po._m_cover_steps`` over every element of
    degree 6 or less: kind 1 keeps the tree and drops one mark, kind 2
    rotates the tree and keeps the marks, and kind 3 rotates the tree and
    drops one mark, as the must-fail rows that leave a kind out assume."""
    steps = po._m_cover_steps
    seen = []

    def recorded(ideal, block, blocks, rotations):
        for j, kind in steps(ideal, block, blocks, rotations):
            seen.append((block[ideal], j, kind))
            yield j, kind

    monkeypatch.setattr(po, "_m_cover_steps", recorded)
    kinds = set()
    for n in range(7):
        seen.clear()
        elements = po.family_poset("M", n).elements
        for i, j, kind in seen:
            b, c = elements[i], elements[j]
            assert c.ideal <= b.ideal, (b, c)
            dropped = len(b.ideal - c.ideal)
            if kind == 1:
                assert c.tree == b.tree and dropped == 1, (b, c)
            else:
                assert c.tree in tamari_covers(b.tree), (b, c, kind)
                assert dropped == kind - 2, (b, c, kind)
            kinds.add(kind)
    assert kinds == {1, 2, 3}


def test_fiber_extremes_not_order_preserving():
    """Degree-4 witnesses: comparable bi-leveled trees whose
    fiber maxima (respectively minima) are incomparable, so the projection
    from permutations is not a lattice congruence."""
    m_leq = partial(leq, po.family_poset("M", 4))
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
    m_leq = partial(leq, po.family_poset("M", 7))
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
                if leq(poset, x, y) and x != y:
                    total = sum(
                        poset.mobius(x, z) for z in poset.elements
                        if leq(poset, x, z) and leq(poset, z, y))
                    assert total == 0


def test_chain_sum_is_one_on_intervals():
    for family, n in [("S", 3), ("Y", 4), ("M", 3)]:
        poset = po.family_poset(family, n)
        for x in poset.elements:
            for y in poset.elements:
                if leq(poset, x, y):
                    sub = leq_order(interval(poset, x, y),
                                    partial(leq, poset))
                    assert chain_sum(sub) == 1


# ---------------------------------------------------------------------------
# the chain argument behind the Mobius comparison


def test_fibers_factor_into_blocks():
    """Inside one fiber, chains meeting every block of the monotone block
    partition contribute (-1)^(number of blocks), exercising the chain
    argument behind the Mobius comparison."""
    for n in range(1, 5):
        sposet = po.family_poset("S", n)
        for b in tc.enumerate_family("M", n):
            fiber = pj.beta_fiber(b)
            sub = leq_order(fiber, po.weak_leq)
            # one-block partition: the whole fiber
            assert chain_sum_meeting_all_blocks(sub, [set(fiber)]) == 1


# ---------------------------------------------------------------------------
# the fast paths against the definitions they replace


def leq_poset(family, n):
    """The order built by testing the defining relation on every pair."""
    elements = tc.enumerate_family(family, n)
    if family == "S":
        # weak_leq, with each inversion set computed once
        inversions = {w: po.inversion_set(w) for w in elements}
        return leq_order(elements, lambda u, v: inversions[u] <= inversions[v])
    tamari = po.family_poset("Y", n)
    return leq_order(
        elements,
        lambda b, c: leq(tamari, b.tree, c.tree) and b.ideal >= c.ideal)


@pytest.mark.parametrize("family,top", [("S", 6), ("M", 7)])
def test_cover_built_orders_match_definition(family, top):
    for n in range(top + 1):
        fast, slow = po.family_poset(family, n), leq_poset(family, n)
        assert fast.elements == slow.elements
        assert fast.up == slow.up, n
        assert oracles.down_sets(fast) == oracles.down_sets(slow), n
        assert oracles.covers(fast) == oracles.covers(slow), n


@pytest.mark.parametrize("family,top", [("S", 5), ("Y", 6), ("M", 6)])
def test_mobius_rows_match_chain_oracle(family, top):
    """The values the ``mobius`` command reads, in closed form on
    permutations."""
    for n in range(top + 1):
        # the Tamari order is defined by its covers, so it is its own oracle
        slow = po.family_poset(family, n) if family == "Y" \
            else leq_poset(family, n)
        for x in slow.elements:
            for y in slow.elements:
                assert po.mobius(family, x, y) == hall_mobius(slow, x, y), \
                    (x, y)


def test_tamari_index_covers_match_element_covers():
    """The index lists of the Tamari order builds, against the covers of
    each tree built as trees, order included."""
    for n in range(9):
        poset = po.family_poset("Y", n)
        for x, js in zip(poset.elements, poset.succ):
            assert js == [poset.index[c] for c in tamari_covers(x)], x


def rows_differ_from_listing(poset) -> bool:
    return any(poset.mobius_row(i) != row_from_order(poset, i)
               for i in range(len(poset.elements)))


@pytest.mark.parametrize("family,top", [("S", 6), ("Y", 8), ("M", 7)])
def test_mobius_rows_match_listing_oracle(family, top):
    for n in range(top + 1):
        assert not rows_differ_from_listing(po.family_poset(family, n)), n


def test_counted_row_is_the_recursion(fresh_caches, monkeypatch):
    monkeypatch.setattr(po.FinitePoset, "_crosscut", counted_row())
    assert not rows_differ_from_listing(po.family_poset("M", 4))


@pytest.mark.parametrize("mutation", [
    dict(drop=True), dict(sign=1), dict(top=1),
], ids=["dropped-cover", "flipped-sign", "wrong-join"])
def test_a_wrong_row_count_shows(fresh_caches, monkeypatch, mutation):
    """A cover left out of the crosscut walk, the sign of the odd sets of
    covers flipped, or the top read as another element by the join
    lookup, shows in the comparison with the listing recursion at degree
    4 (and in the Mobius comparison suite: rows ``crosscut-*`` of
    ``test_must_fail``)."""
    monkeypatch.setattr(po.FinitePoset, "_crosscut", counted_row(**mutation))
    assert rows_differ_from_listing(po.family_poset("M", 4))


def test_a_cover_listed_after_its_element_is_rejected():
    for succ in ([[1], []], [[0]], [[], [0], [1, 2]]):
        with pytest.raises(ValueError, match="before its element"):
            po.FinitePoset(range(len(succ)), succ).up


@pytest.mark.parametrize("succ", [
    # top 0 over 1 and 2, each over both 3 and 4, which cover the bottom
    # 5: the covers 3 and 4 of the bottom have two minimal upper bounds
    [[], [0], [0], [1, 2], [1, 2], [3, 4]],
    # top 0 over the two minimal elements 1 and 2
    [[], [0], [0]],
], ids=["two-minimal-upper-bounds", "no-bottom"])
def test_an_order_that_is_no_lattice_is_rejected(succ):
    poset = po.FinitePoset(range(len(succ)), succ)
    last = len(succ) - 1
    assert leq(poset, last, 0)
    with pytest.raises(ValueError, match="not a lattice"):
        poset.mobius_row(last)
    with pytest.raises(ValueError, match="not a lattice"):
        poset.mobius(last, 0)


def test_closed_weak_order_rows_match_the_recursion():
    for n in range(7):
        sposet = po.family_poset("S", n)
        for i, x in enumerate(sposet.elements):
            row = {sposet.elements[j]: mu
                   for j, mu in sposet.mobius_row(i).items()}
            assert po.mobius_row_of("S", x) == row, x


def test_closed_weak_order_rows_match_the_combinations_form():
    """The submask walk gives the row of the closed form as written, its
    sets of ascents drawn by ``combinations``, on every permutation
    through degree 7."""
    for n in range(8):
        for u in tc.all_perms(n):
            assert po.weak_mobius_row(u) == oracles.weak_mobius_row(u), u


def test_beta_fibers_match_scan():
    """The fibers built by inserting the letter 1 are those of ``beta``
    applied to every permutation, each sorted, through degree 8."""
    for n in range(9):
        scan = {}
        for w in tc.all_perms(n):
            scan.setdefault(pj.beta(w), []).append(w)
        assert set(pj.beta_fibers(n)) == set(tc.all_bileveled(n))
        for b in tc.all_bileveled(n):
            assert pj.beta_fiber(b) == tuple(sorted(scan[b])), b


def test_inversion_mask_is_the_inversion_set():
    """The mask has a bit for each inversion on all of S_n for n <= 7, and
    its containment is the weak order on all pairs for n <= 5."""
    for n in range(8):
        for w in tc.all_perms(n):
            pairs = po.inversion_set(w)
            mask = po._inversion_mask(w)
            assert mask.bit_count() == len(pairs), w
            assert mask == sum(1 << ((i - 1) * n + j - 1) for i, j in pairs)
    for n in range(6):
        masks = {w: po._inversion_mask(w) for w in tc.all_perms(n)}
        for u, mu in masks.items():
            for v, mv in masks.items():
                assert (not mu & ~mv) == po.weak_leq(u, v), (u, v)


def test_set_bits_match_the_lowest_bit_loop():
    """The byte-table scan lists the bits of the one-bit-at-a-time loop,
    on 0, single bits, masks ending at and around byte boundaries, and
    masks as wide as the bi-leveled order of degree 9."""
    masks = [0] + [1 << k for k in range(70)]
    masks += [(1 << w) - 1 for w in range(1, 70)]
    masks += [(1 << w) - 1 ^ (1 << (w - 1) // 2) for w in range(2, 70)]
    rng = random.Random(9)
    masks += [rng.getrandbits(25_674) | 1 << 25_673 for _ in range(3)]
    masks += [sum(1 << rng.randrange(25_674) for _ in range(500))
              for _ in range(3)]
    for mask in masks:
        assert po._bits(mask) == oracles.bits(mask), mask.bit_length()


def test_fiber_test_matches_closure_oracle(monkeypatch):
    """``interval-retract`` reports ``fiber-not-interval`` for an element
    exactly when the set given as its fiber is not a weak-order interval:
    every subset of S_3 as the fiber of the degree-3 top, and through
    degree 4 every beta-fiber and every such fiber with one permutation
    added or removed."""
    beta_fiber = pj.beta_fiber
    s3 = tc.all_perms(3)
    cases = [(pj.beta((3, 2, 1)), set(sub))
             for r in range(len(s3) + 1) for sub in combinations(s3, r)]
    for n in range(5):
        perms = tc.all_perms(n)
        for b, fiber in pj.beta_fibers(n).items():
            members = set(fiber)
            cases += [(b, members)] + [(b, members - {w}) for w in members]
            cases += [(b, members | {w}) for w in perms if w not in members]
    assert len(cases) == 641
    for b, sub in cases:
        n = tc.nodes(b.tree)
        monkeypatch.setattr(pj, "beta_fiber", lambda x: (
            tuple(sorted(sub)) if x == b else beta_fiber(x)))
        report = po.interval_retract_verify(n)
        reported = [v for v in report["violations"]
                    if v[0] == "fiber-not-interval"]
        expected = [] if is_interval_subset(po.family_poset("S", n), sub) \
            else [("fiber-not-interval", tc.format_bileveled(b))]
        assert reported == expected, (b, sorted(sub))


def test_order_suites_build_no_weak_order_closure():
    """The fiber test and the Hasse diagrams build no closure of the weak
    or the bi-leveled order; a weak-order Mobius value, the fundamental
    image of a second-basis permutation and the Mobius comparison build no
    weak order at all."""
    po.family_poset.cache_clear()
    po.interval_retract_verify(5)
    po.hasse_dot("M", 5)
    po.hasse_dot("S", 5)
    for family in "SM":
        assert "up" not in vars(po.family_poset(family, 5)), family
    po.family_poset.cache_clear()
    assert po.mobius("S", (1, 2, 3, 4, 5), (2, 1, 3, 5, 4)) == 1
    assert ha.to_F(ha.Mb("S", (1, 3, 2))) == \
        ha.F("S", (1, 3, 2)) - ha.F("S", (2, 3, 1))
    assert po.fiberwise_mobius_verify(5)["ok"]
    for n in (3, 5):
        # a weak order asked for now is built, not found in the cache
        misses = po.family_poset.cache_info().misses
        po.family_poset("S", n)
        assert po.family_poset.cache_info().misses == misses + 1, n


def test_mobius_comparison_computes_each_row_once(fresh_caches,
                                                  monkeypatch):
    """Each call of the Mobius comparison, the second one too, walks the
    crosscut once per bi-leveled tree: no row is kept, and no value is
    read one pair at a time."""
    crosscut = po.FinitePoset._crosscut
    calls = []

    def counted(self, i, covers):
        calls.append(i)
        return crosscut(self, i, covers)

    monkeypatch.setattr(po.FinitePoset, "_crosscut", counted)
    for n in range(7):
        for _ in range(2):
            calls.clear()
            assert po.fiberwise_mobius_verify(n)["ok"]
            elements = po.family_poset("M", n).elements
            assert sorted(calls) == list(range(len(elements)))


def test_a_dropped_rotation_shows(fresh_caches, monkeypatch):
    """The first rotation of each tree dropped from the position-built rows
    shows in the comparison of both index builders with the covers built
    as elements: the rotations of a tree, and the paper's classification
    of the bi-leveled covers (and in the Mobius comparison suite: row
    ``rotation-dropped``)."""
    monkeypatch.setattr(po, "_rotation_rows",
                        first_rotation_dropped(po._rotation_rows))
    for family, covers in (("Y", tamari_covers), ("M", m_covers_by_types)):
        poset = po.family_poset(family, 2)
        assert any({poset.elements[j] for j in js} != set(covers(x))
                   for x, js in zip(poset.elements, poset.succ)), family


def test_a_flipped_weak_order_value_shows(monkeypatch, capsys):
    """One closed-form weak-order value with its sign flipped shows in the
    ``mobius`` command (and in the Mobius comparison suite: row
    ``weak-value-flipped``)."""
    monkeypatch.setattr(po, "weak_mobius_row",
                        flipped_weak_value(po.weak_mobius_row))
    assert cli.run(["mobius", "--family", "S", "123", "213"]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.slow
@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_every_suite_passes_at_degree_nine(suite):
    """Each suite through degree 9, in a fresh process under
    ``TREESYM_MAX_N=9``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), TREESYM_MAX_N="9")
    done = subprocess.run(
        [sys.executable, "-c", "from treesym.cli import main; main()",
         "verify", "--suite", suite, "--n", "9"],
        capture_output=True, text=True, timeout=600, env=env)
    assert done.returncode == 0, done.stderr
    line = "OK: %s through degree 9" % cli.SUITES[suite][2]
    assert done.stdout.splitlines()[-1] == line, done.stdout


# ---------------------------------------------------------------------------
# DOT export


def test_hasse_dot_deterministic_and_sized():
    first = po.hasse_dot("Y", 3)
    assert first == po.hasse_dot("Y", 3)
    assert first.count("->") == sum(
        len(tamari_covers(t)) for t in tc.all_trees(3))
    assert po.hasse_dot("M", 2).count("->") == 1
