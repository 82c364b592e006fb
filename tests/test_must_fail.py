"""Each verify suite can fail: one table of mutations of the code the
suites check.

A row names the suite (a key of ``cli.SUITES``), the owner and the name of
the attribute to patch, and ``mutate``, which maps the attribute to its
mutated replacement.  ``failing`` lists the degrees at which the suite's
report fails, from the suite's first degree through ``through`` (by default
the last of them), so its first entry is the least failing degree; there
``verify`` exits 1 with a ``FAIL:`` line.  Where more is pinned,
``violations`` is the report's whole list of violations at that degree,
whose first entry the ``FAIL:`` line shows, and ``kinds`` the set of their
first fields.

To add a row, write the mutation, apply it in a session and list the
degrees at which the report fails, then add the row to :data:`ROWS` under
a new id.
"""

from collections import Counter
from typing import Callable, NamedTuple

import pytest

from treesym import cli
from treesym import hopf_algebra as ha
from treesym import hopf_modules as hm
from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc
from treesym.hopf_algebra import F, Mb, LinComb, TensorComb


# ---------------------------------------------------------------------------
# mutations: each ``mutate`` below, or built by a function below, maps
# the attribute it patches to the replacement


def counted_row(drop=False, sign=-1, top=0):
    """The crosscut walk of ``FinitePoset._crosscut``, mutated: with
    ``drop`` the last of the given covers is left out of the walk, a set
    with a cover added takes ``sign`` times the value of the set, and the
    join lookup returns ``top`` for the top element, index 0."""

    def crosscut(self, i, covers):
        up, join = self.up, self._join
        row = {i: 1}
        for c in covers[:-1] if drop else covers:
            above = up[c]
            step = row.copy()
            for j, v in row.items():
                k = join[up[j] & above] or top
                step[k] = step.get(k, 0) + sign * v
            row = {j: v for j, v in step.items() if v}
        return row

    return crosscut


def without_steps(drop):
    """``po._m_cover_steps`` with the steps ``(j, kind)`` for which ``drop``
    holds left out."""
    def mutate(steps):
        return lambda *args: (step for step in steps(*args)
                              if not drop(*step))
    return mutate


def first_rotation_dropped(rows):
    return lambda n: [row[1:] for row in rows(n)]


def flipped_weak_value(closed):
    """The closed-form weak-order value of ``(123, 213)`` negated."""
    def flipped(w):
        row = closed(w)
        if w == (1, 2, 3):
            row[2, 1, 3] = -row[2, 1, 3]
        return row
    return flipped


def flipped_block_reversal(table):
    """The sign of the entry of ``J = {1}`` flipped in every degree's
    table of block reversals."""
    def flipped(n):
        entries = list(table(n))
        if len(entries) > 1:
            image, sign = entries[1]
            entries[1] = (image, -sign)
        return entries
    return flipped


def unshifted_marks(step):
    """The marks after the inserted letter 1 left where they were."""
    return lambda b, i: step(b, i) if i == 0 else step(b, i)._replace(
        ideal=b.ideal)


def dropped_top_inversion(inversions):
    """One pair dropped from the inversion mask of ``n...1``, the section
    value of the top of the bi-leveled order."""
    def dropped(w):
        mask = inversions(w)
        if w == tuple(range(len(w), 0, -1)):
            mask &= mask - 1
        return mask
    return dropped


TOP_3 = pj.beta((3, 2, 1))


def fiber_of_top(bad_fiber):
    """``bad_fiber`` given as the fiber of the top of degree 3."""
    return lambda fiber: lambda b: bad_fiber if b == TOP_3 else fiber(b)


def one_more_value(x, y):
    """``FinitePoset.mobius_row`` with the value 1 at ``y``, where it is
    0, in the row of ``x``."""
    def mutate(mobius_row):
        def mutated(self, i):
            row = mobius_row(self, i)
            if self.elements[i] == x:
                row = {**row, self.index[y]: 1}
            return row
        return mutated
    return mutate


def drop_first_term(product):
    """``product``, or any map to linear combinations, with the first term
    dropped from every image that has more than one."""
    def dropped(*args):
        image = product(*args)
        terms = dict(image.terms)
        if len(terms) > 1:
            terms.pop(next(iter(terms)))
        return LinComb(image.family, image.flavor, terms)
    return dropped


FLIPPED = tc.parse_bileveled("((..)(..));{1,2}")


def flip_one_coefficient(coaction):
    """``coaction`` with one coefficient of its image of ``F_FLIPPED``
    negated, extended linearly."""
    key, c = next(iter(coaction(F("M", FLIPPED)).terms.items()))

    def flipped(a):
        image = coaction(a)
        return image + TensorComb(
            image.legs, "F", {key: -2 * c * a.terms.get(FLIPPED, 0)})
    return flipped


EXTRA_RHO_TERM = ha.tensor_of(Mb("M", hm.EMPTY_B), Mb("Y", tc.LEAF))


def image_of_another_pair(kappa):
    """The first coinvariant index of degree 4 mapped as the second."""
    first, other = hm.b_prime_basis(4)[:2]
    return lambda bp, v: kappa(other if bp == first else bp, v)


def least_section_value_dropped(sections):
    values, image = sections(3)
    dropped = min(image)
    return lambda k: (values, image - {dropped}) if k == 3 else sections(k)


def last_member_swapped(basis):
    """The index set with its last member replaced by the last bi-leveled
    tree of its degree outside it, kept in canonical order."""
    def swapped(n):
        members, trees = basis(n), tc.enumerate_family("M", n)
        others = [b for b in trees if b not in members]
        if not members or not others:
            return members
        kept = {*members[:-1], others[-1]}
        return tuple(b for b in trees if b in kept)
    return swapped


def last_entry_ignored(eliminate):
    """Each row reduced against its pivot row without the pivot row's last
    column, where it has a column besides the pivot."""
    def mutated(row, prow, col):
        if len(prow) > 1:
            last = max(prow)
            prow = {c: x for c, x in prow.items() if c != last}
        return eliminate(row, prow, col)
    return mutated


def cut_two_read_as_one(cuts):
    """Each cut table of a tree of two or more nodes with its cut at leaf
    2 replaced by the cut at leaf 1."""
    def mutated(t):
        table = cuts(t)
        return table[:2] + table[1:2] + table[3:] if len(table) > 2 else table
    return mutated


def grafted_right_to_left(graft):
    """Leaves filled from the right."""
    def mutated(parts, base):
        if not base:
            return next(parts)
        right = mutated(parts, base[1])
        return (mutated(parts, base[0]), right)
    return mutated


# ---------------------------------------------------------------------------
# the table


class Row(NamedTuple):
    suite: str
    owner: object
    name: str
    mutate: Callable
    failing: tuple
    through: int | None = None
    violations: list | None = None
    kinds: set | None = None


ROWS = {
    # the Mobius comparison
    "crosscut-dropped-cover": Row(
        "mobius-fibers", po.FinitePoset, "_crosscut",
        lambda _: counted_row(drop=True), (2,)),
    "crosscut-flipped-sign": Row(
        "mobius-fibers", po.FinitePoset, "_crosscut",
        lambda _: counted_row(sign=1), (2,)),
    "crosscut-wrong-join": Row(
        "mobius-fibers", po.FinitePoset, "_crosscut",
        lambda _: counted_row(top=1), (2,)),
    # a cover kind left out of ``_m_cover_steps`` shows against the paper's
    # classification of the covers in the tests; the suite shows it too
    "cover-rule-third-kind": Row(
        "mobius-fibers", po, "_m_cover_steps",
        without_steps(lambda j, kind: kind == 3), (2,)),
    "cover-rule-mark-drop": Row(
        "mobius-fibers", po, "_m_cover_steps",
        without_steps(lambda j, kind: kind == 1), (3,)),
    "rotation-dropped": Row(
        "mobius-fibers", po, "_rotation_rows", first_rotation_dropped, (2,),
        violations=[("not-a-lattice", 2)]),
    "weak-value-flipped": Row(
        "mobius-fibers", po, "weak_mobius_row", flipped_weak_value, (3,),
        violations=[("(((..).).);{1,2,3}", "((.(..)).);{1,3}", -1, 1)]),
    "block-reversal-sign-flipped": Row(
        "mobius-fibers", po, "_block_reversals", flipped_block_reversal, (2,)),
    "mobius-row-extra-value": Row(
        "mobius-fibers", po.FinitePoset, "mobius_row",
        one_more_value(TOP_3, tc.parse_bileveled("(.((..).));{1}")), (3,),
        violations=[("(.(.(..)));{1}", "(.((..).));{1}", 1, 0)]),
    # the interval retract
    "fiber-marks-unshifted": Row(
        "interval-retract", pj, "_beta_inserting_one", unshifted_marks, (3,),
        kinds={"fiber-not-interval"}),
    "section-inversion-dropped": Row(
        "interval-retract", po, "_inversion_mask", dropped_top_inversion,
        (3,), kinds={"section-not-order-preserving"}),
    "fiber-extra-member": Row(
        "interval-retract", pj, "beta_fiber",
        fiber_of_top(((1, 2, 3), (3, 2, 1))), (3,),
        violations=[("fiber-not-interval", "(.(.(..)));{1}")]),
    "fiber-missing-inner-element": Row(
        "interval-retract", pj, "beta_fiber",
        fiber_of_top(tuple(w for w in tc.all_perms(3) if w != (2, 3, 1))),
        (3,), violations=[("fiber-not-interval", "(.(.(..)));{1}")]),
    "fiber-two-minima": Row(
        "interval-retract", pj, "beta_fiber",
        fiber_of_top(tuple(w for w in tc.all_perms(3) if w != (1, 2, 3))),
        (3,), violations=[("fiber-not-interval", "(.(.(..)));{1}")]),
    # the restricted Hopf module
    "plus-action-term-dropped": Row(
        "hopf-module-plus", hm, "plus_action", drop_first_term, (3,)),
    "product-term-dropped": Row(
        "hopf-module-plus", ha, "mul_F", drop_first_term, (3,)),
    "plus-coaction-flipped": Row(
        "hopf-module-plus", hm, "plus_coaction", flip_one_coefficient, (3,)),
    "restricted-cut-at-leaf-0": Row(
        "hopf-module-plus", tc, "restricted_splittings",
        lambda splittings: lambda b, m: tc._split_bileveled(b, m, 0)
        if m > 1 else splittings(b, m), (3,)),
    "plus-cut-2-read-as-1": Row(
        "hopf-module-plus", tc, "_tree_cuts", cut_two_read_as_one, (2,)),
    "graft-right-to-left": Row(
        "hopf-module-plus", tc, "_graft_onto", grafted_right_to_left, (3,)),
    # the transported structure
    "rho-extra-term": Row(
        "hopf-module-bbslash", ha, "rho_M_closed",
        lambda closed: lambda b: closed(b) + EXTRA_RHO_TERM, (0, 1, 2, 3)),
    "action-doubled": Row(
        "hopf-module-bbslash", hm, "msym_action_M",
        lambda action: lambda *key: 2 * action(*key), (0, 1, 2, 3)),
    "rho-flipped": Row(
        "hopf-module-bbslash", ha, "coaction_rho", flip_one_coefficient, (3,)),
    "rho-cut-2-read-as-1": Row(
        "hopf-module-bbslash", tc, "_tree_cuts", cut_two_read_as_one, (2, 3)),
    # the coinvariants
    "index-set-short": Row(
        "coinvariants", hm, "b_basis",
        lambda basis: lambda n: basis(n)[:-1], (1, 2, 3)),
    "restricted-coaction-flipped": Row(
        "coinvariants", hm, "plus_coaction", flip_one_coefficient, (3,),
        through=4, violations=[("restricted", 3)]),
    "full-coaction-flipped": Row(
        "coinvariants", ha, "coaction_rho", flip_one_coefficient, (3,),
        through=4, violations=[("full", 3)]),
    "coaction-cut-2-read-as-1": Row(
        "coinvariants", tc, "_tree_cuts", cut_two_read_as_one, (2, 3)),
    "index-member-swapped": Row(
        "coinvariants", hm, "b_basis", last_member_swapped, (2, 3),
        violations=[("restricted", 2)]),
    "prime-index-member-swapped": Row(
        "coinvariants", hm, "b_prime_basis", last_member_swapped, (3, 4),
        violations=[("full", 3)]),
    "pivot-row-last-entry-ignored": Row(
        "coinvariants", hm, "_eliminate", last_entry_ignored, (3, 4),
        violations=[("restricted", 3), ("full", 3)]),
    # the final bijection
    "inverse-wrong": Row(
        "kappa", hm, "kappa_inverse", lambda inverse: lambda w: (
            (hm.EMPTY_B, w) if len(w) == 3 else inverse(w)), (3,)),
    "image-wrong": Row(
        "kappa", hm, "kappa", image_of_another_pair, (4,), through=5),
    "section-value-dropped": Row(
        "kappa", hm, "_sections", least_section_value_dropped, (3, 6)),
    "132-read-as-avoided": Row(
        "kappa", pj, "avoids_132",
        lambda avoids: lambda w: w == (1, 3, 2) or avoids(w), (3,)),
    "first-component-read-as-last": Row(
        "kappa", hm, "_last_has_132", lambda last: lambda w, cuts: last(
            w, cuts[:2]), (4,)),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
def test_a_mutation_fails_its_suite(row, fresh_caches, monkeypatch, capsys):
    checker, start, _ = cli.SUITES[row.suite]
    monkeypatch.setattr(row.owner, row.name,
                        row.mutate(getattr(row.owner, row.name)))
    first = row.failing[0]
    through = row.failing[-1] if row.through is None else row.through
    report = checker()
    reports = {n: report(n) for n in range(start, through + 1)}
    assert tuple(n for n, r in reports.items() if not r["ok"]) == row.failing
    violations = reports[first]["violations"]
    if row.violations is not None:
        assert violations == row.violations
    if row.kinds is not None:
        assert {v[0] for v in violations} == row.kinds
    code = cli.run(["verify", "--suite", row.suite, "--n", str(first)])
    out = capsys.readouterr().out
    assert code == 1 and out == "FAIL: %s\n" % (violations[0],), out


def test_every_suite_has_two_rows():
    rows = Counter(row.suite for row in ROWS.values())
    assert set(rows) == set(cli.SUITES) and min(rows.values()) >= 2, rows
