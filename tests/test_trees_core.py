"""Core encodings, generation, splitting, grafting, and the two
representations of bi-leveled trees."""

import json
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, strategies as st

from treesym import cli
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


def listing(capsys, family, n, *extra):
    """The exit code and stdout of ``enumerate`` for one graded piece."""
    code = cli.run(["enumerate", "--family", family, "--n", str(n), *extra])
    return code, capsys.readouterr().out


def test_enumeration_is_canonically_sorted(capsys):
    """The ``enumerate`` listing is in text order, without repeats, in text
    and in JSON."""
    for family in "SMY":
        for n in range(5):
            code, out = listing(capsys, family, n)
            keys = out.splitlines()
            assert code == 0 and keys == sorted(set(keys)), (family, n)
            assert listing(capsys, family, n, "--json") == \
                (0, json.dumps(keys) + "\n")


def printed(family, elements):
    """The listing of ``elements``, one text encoding a line."""
    fmt = tc.FAMILIES[family].format
    return "".join(fmt(x) + "\n" for x in elements)


@pytest.mark.parametrize("family", "SYM")
def test_enumeration_matches_text_sort(capsys, family):
    """The ``enumerate`` listing, sorted where it is printed, order
    included."""
    for n in range(9):
        assert listing(capsys, family, n) == \
            (0, printed(family, oracles.enumerate_by_text(family, n))), n


def test_degree_ten_permutations_are_sorted_by_text(capsys, monkeypatch):
    """From degree 10 a letter can take two digits, and ``1,10,...`` comes
    before ``1,2,...`` in text: the tuple order of S, its generator's, is
    its text order only up to degree 9, and the listing is in text
    order."""
    rest = tuple(range(3, 10))
    perms = ((1, 2, 10) + rest, (1, 10, 2) + rest, (2, 1, 10) + rest,
             (2, 10, 1) + rest, (10, 1, 2) + rest)
    text_order = tuple(sorted(perms, key=tc.format_perm))
    assert text_order != tuple(sorted(perms))
    family = tc.FAMILIES["S"]
    monkeypatch.setenv("TREESYM_MAX_N", "10")
    monkeypatch.setitem(tc.FAMILIES, "S", family._replace(
        generate=lambda n: perms if n == 10 else family.generate(n)))
    assert listing(capsys, "S", 10) == (0, printed("S", text_order))


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
                    # a mark outside 1..n, with or without the node marks
                    for bad in (0, n + 1, -1):
                        for wrong in (ideal | {bad}, ideal | {1, bad}):
                            assert not tc.is_admissible_ideal(t, wrong)
                            assert not oracles.is_admissible_ideal(t, wrong)
    for marks in ({1}, {0}, {-1}, {0, 1}):
        assert not tc.is_admissible_ideal(tc.LEAF, frozenset(marks))
        assert not oracles.is_admissible_ideal(tc.LEAF, frozenset(marks))


def test_generation_matches_subset_filter():
    """The direct generation gives the subset filter's elements in its
    order, which the Hopf-module reports iterate."""
    for n in range(9):
        assert tc.all_bileveled(n) == oracles.all_bileveled(n), n


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


def test_restricted_splittings_match_the_filter():
    for n in range(1, 7):
        for b in tc.all_bileveled(n):
            for m in range(4):
                assert list(tc.restricted_splittings(b, m)) \
                    == oracles.restricted_splittings(b, m), (b, m)


def test_cut_tables_match_the_per_leaf_recursion():
    for n in range(9):
        for t in tc.all_trees(n):
            cuts = tc._tree_cuts(t)
            assert len(cuts) == n + 1, t
            for i, cut in enumerate(cuts):
                assert cut == tc._split_tree_once(t, i), (t, i)
                assert tc.nodes(cut[0]) == i, (t, i)


def test_splittings_match_the_per_leaf_cuts_and_mark_scan():
    """Splittings read from the cut tables, with marks handed out by
    position, against cutting anew at each leaf and scanning every mark."""
    for n in range(7):
        for m in range(4):
            for t in tc.all_trees(n):
                assert list(tc.tree_splittings(t, m)) == [
                    oracles.split_tree_at(t, choice) for choice in
                    combinations_with_replacement(range(n + 1), m)], (t, m)
            for b in tc.all_bileveled(n):
                assert list(tc.bileveled_splittings(b, m)) \
                    == oracles.bileveled_splittings(b, m), (b, m)


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


def test_graft_needs_one_tree_per_leaf():
    base = tc.parse_tree("((..).)")
    for forest in ((tc.LEAF,) * 2, (tc.LEAF,) * 4):
        with pytest.raises(ValueError):
            tc.graft_trees(forest, base)
    assert tc.graft_trees((tc.LEAF,) * 3, base) == base


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
            parts = oracles.perm_indecomposables(w)
            assert reduce(perm_backslash, parts, ()) == w


def test_perm_cut_scan_matches_the_set_comparisons():
    for n in range(8):
        for w in tc.all_perms(n):
            assert tc.perm_backslash_decompositions(w) == \
                oracles.perm_backslash_decompositions(w)


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
                parts = {"S": oracles.perm_indecomposables,
                         "Y": oracles.tree_indecomposables}[family](x)
                assert len(pairs) == len(parts) + 1
                assert pairs[0] == (fam.empty, x)
                assert pairs[-1] == (x, fam.empty)


def test_tree_indecomposables_refold():
    for n in range(6):
        for t in tc.all_trees(n):
            parts = oracles.tree_indecomposables(t)
            assert reduce(tc.backslash, parts, tc.LEAF) == t


def test_leftmost_branch_positions():
    t = tc.parse_tree("((..)(.(..)))")  # 4 nodes, root at position 2
    assert tc.leftmost_branch(t) == frozenset({1, 2})
    comb_left = tc.parse_tree("(((..).).)")
    assert tc.leftmost_branch(comb_left) == frozenset({1, 2, 3})
