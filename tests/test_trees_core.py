"""Core encodings, generation, splitting, grafting, and the two
representations of bi-leveled trees."""

from functools import reduce
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from treesym import trees_core as tc
from treesym.trees_core import BiLeveledTree

import oracles


def trees(max_nodes=6):
    return st.integers(0, max_nodes).flatmap(
        lambda n: st.sampled_from(tc.all_trees(n)))


def perms(max_len=6):
    return st.integers(0, max_len).flatmap(
        lambda n: st.sampled_from(tc.all_perms(n)))


def bileveleds(max_nodes=5):
    return st.integers(0, max_nodes).flatmap(
        lambda n: st.sampled_from(tc.all_bileveled(n)))


# ---------------------------------------------------------------------------
# encodings


@given(trees())
def test_tree_encoding_round_trip(t):
    assert tc.parse_tree(tc.format_tree(t)) == t


@given(perms())
def test_perm_encoding_round_trip(w):
    assert tc.parse_perm(tc.format_perm(w)) == w


@given(bileveleds())
def test_bileveled_encoding_round_trip(b):
    assert tc.parse_bileveled(tc.format_bileveled(b)) == b


def test_long_perm_encoding_uses_commas():
    w = tuple(range(1, 12))
    assert "," in tc.format_perm(w)
    assert tc.parse_perm(tc.format_perm(w)) == w


@pytest.mark.parametrize("bad", ["((..)", "(..))", "(...)", "", "(.)"])
def test_malformed_tree_rejected(bad):
    with pytest.raises(tc.ParseError):
        tc.parse_tree(bad)


@pytest.mark.parametrize("bad", ["121", "13", "0", "1,2,2"])
def test_malformed_perm_rejected(bad):
    with pytest.raises(tc.ParseError):
        tc.parse_perm(bad)


def test_inadmissible_mark_set_rejected():
    # marks must be an up-closed set containing the leftmost node
    with pytest.raises(tc.ParseError):
        tc.parse_bileveled("((..).);{2}")
    with pytest.raises(tc.ParseError):
        tc.parse_bileveled("(..);{1,2}")


@given(perms())
def test_standardize_idempotent(w):
    assert tc.standardize(w) == w
    shifted = tuple(a + 5 for a in w)
    assert tc.standardize(shifted) == w


# ---------------------------------------------------------------------------
# generation


def test_family_cardinalities():
    assert [len(tc.all_trees(n)) for n in range(7)] == \
        [1, 1, 2, 5, 14, 42, 132]
    assert [len(tc.all_perms(n)) for n in range(6)] == [1, 1, 2, 6, 24, 120]
    assert [len(tc.all_bileveled(n)) for n in range(7)] == \
        [1, 1, 2, 6, 21, 80, 322]


def test_enumeration_is_canonically_sorted():
    for family in "SMY":
        for n in range(5):
            elements = tc.enumerate_family(family, n)
            keys = [tc.FAMILIES[family].format(x) for x in elements]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


@given(bileveleds())
def test_generated_mark_sets_admissible(b):
    assert tc.is_admissible_ideal(b.tree, b.ideal)
    # up-closed and containing the leftmost node
    if b.tree:
        assert 1 in b.ideal
        parent = dict(oracles.node_covers(b.tree))
        for v in b.ideal:
            if v in parent:
                assert parent[v] in b.ideal


def test_admissibility_matches_node_cover_test():
    for n in range(8):
        for t in tc.all_trees(n):
            for r in range(n + 1):
                for marks in combinations(range(1, n + 1), r):
                    ideal = frozenset(marks)
                    assert tc.is_admissible_ideal(t, ideal) \
                        == oracles.is_admissible_ideal(t, ideal), (t, ideal)


# ---------------------------------------------------------------------------
# splittings and graftings


@given(trees(5), st.integers(0, 3))
def test_tree_splitting_count(t, m):
    forests = list(tc.tree_splittings(t, m))
    assert len(forests) == comb(tc.nodes(t) + m, m)
    for forest in forests:
        assert len(forest) == m + 1
        assert sum(tc.nodes(p) for p in forest) == tc.nodes(t)


@given(perms(5), st.integers(0, 3))
def test_perm_splitting_parts_concatenate(w, m):
    for parts in tc.perm_splittings(w, m):
        assert sum(parts, ()) == w


@given(bileveleds(5), st.integers(0, 3))
def test_bileveled_splitting_marks_partition(b, m):
    for forest in tc.bileveled_splittings(b, m):
        total = 0
        recovered = set()
        for tree, marks in forest:
            recovered.update(p + total for p in marks)
            total += tc.nodes(tree)
        assert recovered == set(b.ideal)


def test_restricted_splittings_skip_empty_first_part():
    b = tc.parse_bileveled("((..).);{1,2}")
    all_parts = list(tc.bileveled_splittings(b, 1))
    restricted = list(tc.restricted_splittings(b, 1))
    assert len(all_parts) == 3 and len(restricted) == 2
    assert all(forest[0][0] for forest in restricted)
    with pytest.raises(ValueError):
        list(tc.restricted_splittings(BiLeveledTree((), frozenset()), 1))


def test_perm_graft_display():
    # a five-piece forest grafted onto a four-letter base
    forest = ((3, 2), (), (7, 5, 1), (6,), (4,))
    base = (1, 4, 3, 2)
    assert tc.graft_perms(forest, base) == (3, 2, 8, 11, 7, 5, 1, 10, 6, 9, 4)


@given(trees(4), st.integers(0, 3))
def test_split_then_graft_recovers_tree(t, m):
    for forest in tc.tree_splittings(t, m):
        rights = tuple(tc.all_trees(m))
        for base in rights:
            grafted = tc.graft_trees(forest, base)
            assert tc.nodes(grafted) == tc.nodes(t) + m


def test_graft_single_tree_onto_leaf_is_identity():
    for n in range(5):
        for t in tc.all_trees(n):
            assert tc.graft_trees((t,), tc.LEAF) == t
        for w in tc.all_perms(n):
            assert tc.graft_perms((w,), ()) == w


# ---------------------------------------------------------------------------
# the two representations


def test_forest_form_round_trip():
    for n in range(1, 7):
        for b in tc.all_bileveled(n):
            t0, forest = tc.forest_form(b)
            assert len(forest) == tc.nodes(t0) + 1 == len(b.ideal)
            assert oracles.ideal_form(t0, forest) == b


def test_forest_form_single_node():
    b = tc.parse_bileveled("(..);{1}")
    t0, forest = tc.forest_form(b)
    assert t0 == tc.LEAF and forest == (tc.LEAF,)


def test_ideal_form_nine_node_example():
    # grafting a one-node piece, then (a 2-node piece, nothing, a 3-node
    # piece) under a 3-node upper tree marks positions {1, 2, 5, 6}
    t0 = tc.parse_tree("((..)(..))")
    forest = (tc.LEAF, tc.parse_tree("((..).)"), tc.LEAF,
              tc.parse_tree("((..)(..))"))
    b = oracles.ideal_form(t0, forest)
    assert tc.nodes(b.tree) == 9
    assert b.ideal == frozenset({1, 2, 5, 6})


def test_ideal_form_arity_validation():
    with pytest.raises(ValueError):
        oracles.ideal_form(tc.LEAF, ())


# ---------------------------------------------------------------------------
# decompositions


def perm_backslash(u, v):
    """``u`` over ``v``: the letters of ``u`` shifted above those of ``v``."""
    return tuple(a + len(v) for a in u) + v


def test_perm_indecomposables_refold():
    for n in range(6):
        for w in tc.all_perms(n):
            parts = tc.perm_indecomposables(w)
            assert reduce(perm_backslash, parts, ()) == w


def test_perm_cut_scan_matches_the_set_comparisons():
    for n in range(8):
        for w in tc.all_perms(n):
            assert tc.perm_backslash_decompositions(w) == \
                oracles.perm_backslash_decompositions(w)
            assert tc.perm_indecomposables(w) == oracles.perm_indecomposables(w)


REFOLD = {"S": perm_backslash, "Y": tc.backslash,
          "M": tc.tree_backslash_bileveled}


@pytest.mark.parametrize("family", "SYM")
def test_decompositions_refold_from_first_to_last_cut(family):
    """Every decomposition refolds to the element, none repeats, and the
    last one has an empty right factor.  On S and Y there is one per cut
    between indecomposable factors, both ends included; a nonempty
    bi-leveled tree has none whose left factor is empty."""
    fam = tc.FAMILIES[family]
    for n in range(7):
        for x in tc.enumerate_family(family, n):
            pairs = fam.decompose(x)
            assert all(REFOLD[family](u, v) == x for u, v in pairs)
            assert len(set(pairs)) == len(pairs)
            if family == "M":
                assert pairs[-1:] == (((x, tc.LEAF),) if n else ())
            else:
                parts = {"S": tc.perm_indecomposables,
                         "Y": tc.tree_indecomposables}[family](x)
                assert len(pairs) == len(parts) + 1
                assert pairs[0] == (fam.empty, x)
                assert pairs[-1] == (x, fam.empty)


def test_tree_indecomposables_refold():
    for n in range(6):
        for t in tc.all_trees(n):
            parts = tc.tree_indecomposables(t)
            assert reduce(tc.backslash, parts, tc.LEAF) == t


def test_leftmost_branch_positions():
    t = tc.parse_tree("((..)(.(..)))")  # 4 nodes, root at position 2
    assert tc.leftmost_branch(t) == frozenset({1, 2})
    comb_left = tc.parse_tree("(((..).).)")
    assert tc.leftmost_branch(comb_left) == frozenset({1, 2, 3})
