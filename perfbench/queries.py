"""Seeded generation of the point queries for the ``queries`` workload.

Everything here is independent of the package under test: permutations,
binary trees and admissible bi-leveled trees are drawn and encoded by this
file's own code, so the timed process receives only argument lists.

Two seeds are involved.  ``POOL_SEED`` draws a fixed pool of queries once;
``record_golden.py`` runs that pool and stores each query's stdout in
``golden_queries.json``, so every query a session can issue has a recorded
expected output.  The ``--seed`` of a benchmark run then draws one session
from the pool: a fixed number of queries per stratum, in a seeded order.
The strata fix the (family, degree) of every Mobius query, so each session
builds the same orders whatever its seed.
"""

from __future__ import annotations

import random
from math import comb, factorial

POOL_SEED = 20091111
POOL_PER_STRATUM = 40
# The mix is an assumed one, not a measured user workload: treesym has no
# usage logs.  Every stratum gets the same share of a session, so 41 strata
# give 410 queries, enough for 20 beyond p95.
SESSION_PER_STRATUM = 10
HELD_OUT_SEED = 271828
"""A session seed kept out of tuning, for confirming a later claim."""

# Largest degree in any query; a product counts its total degree.  S-basis
# work at degree 7 needs a full S_7 order build, about 20 s today.
MAX_S = 6
MAX_YM = 7

# Hand-listed numbers of bi-leveled trees with n = 0..7 nodes.
BILEVELED_COUNTS = (1, 1, 2, 6, 21, 80, 322, 1348)


# ---------------------------------------------------------------------------
# elements


def random_perm(rng: random.Random, n: int) -> tuple:
    return tuple(rng.sample(range(1, n + 1), n))


def perm_up(rng: random.Random, w: tuple, steps: int) -> tuple:
    """Walk up the weak order: swap values k, k+1 when k comes first."""
    w = list(w)
    for _ in range(steps):
        pos = {a: i for i, a in enumerate(w)}
        ks = [k for k in range(1, len(w)) if pos[k] < pos[k + 1]]
        if not ks:
            break
        k = rng.choice(ks)
        w[pos[k]], w[pos[k + 1]] = k + 1, k
    return tuple(w)


def random_tree(rng: random.Random, n: int) -> tuple:
    if n == 0:
        return ()
    k = rng.randrange(n)
    return (random_tree(rng, k), random_tree(rng, n - 1 - k))


def _size(t: tuple) -> int:
    return 0 if not t else 1 + _size(t[0]) + _size(t[1])


def _rotations(t: tuple) -> list:
    """Trees one Tamari cover above ``t``: ((a, b), r) becomes (a, (b, r))."""
    if not t:
        return []
    left, right = t
    out = [(left[0], (left[1], right))] if left else []
    out += [(l2, right) for l2 in _rotations(left)]
    out += [(left, r2) for r2 in _rotations(right)]
    return out


def tree_up(rng: random.Random, t: tuple, steps: int) -> tuple:
    for _ in range(steps):
        ups = _rotations(t)
        if not ups:
            break
        t = rng.choice(ups)
    return t


def format_tree(t: tuple) -> str:
    return "." if not t else "(" + format_tree(t[0]) + format_tree(t[1]) + ")"


def _parents(t: tuple) -> dict:
    """In-order node numbers 1..n mapped to their parent (root: None)."""
    parent: dict = {}

    def walk(sub: tuple, offset: int, up) -> None:
        left, right = sub
        root = offset + _size(left) + 1
        parent[root] = up
        if left:
            walk(left, offset, root)
        if right:
            walk(right, root, root)

    if t:
        walk(t, 0, None)
    return parent


def random_bileveled(rng: random.Random, n: int) -> str:
    """A random tree with a random admissible upper set, encoded.

    The set is closed upwards, holds node 1 (so the whole leftmost branch)
    and nothing under node 1; any upward closure of node 1 and further
    nodes outside node 1's subtree qualifies.
    """
    t = random_tree(rng, n)
    parent = _parents(t)
    under_1 = set()
    for v in range(2, n + 1):
        u = parent[v]
        while u is not None and u != 1:
            u = parent[u]
        if u == 1:
            under_1.add(v)
    free = [v for v in range(2, n + 1) if v not in under_1]
    ideal = set()
    for v in [1] + [v for v in free if rng.random() < 0.5]:
        while v is not None and v not in ideal:
            ideal.add(v)
            v = parent[v]
    return "%s;{%s}" % (format_tree(t), ",".join(map(str, sorted(ideal))))


def _shape(w: tuple) -> tuple:
    """Binary tree of ``w``: the largest value is the root."""
    if not w:
        return ()
    j = w.index(max(w))
    return (_shape(w[:j]), _shape(w[j + 1:]))


def perm_to_bileveled(w: tuple) -> str:
    """The shape of ``w`` marked at the positions of values >= w[0]."""
    marks = [i + 1 for i, a in enumerate(w) if a >= w[0]]
    return "%s;{%s}" % (format_tree(_shape(w)), ",".join(map(str, marks)))


def fmt_perm(w: tuple) -> str:
    return "".join(map(str, w))


# ---------------------------------------------------------------------------
# strata: (name, draw function)


def _mobius(family: str, n: int):
    def draw(rng):
        u = random_perm(rng, n)
        v = perm_up(rng, u, rng.randrange(n * (n - 1) // 2 + 1))
        if family == "S":
            x, y = fmt_perm(u), fmt_perm(v)
        elif family == "M":
            x, y = perm_to_bileveled(u), perm_to_bileveled(v)
        else:
            t = random_tree(rng, n)
            x, y = format_tree(t), format_tree(tree_up(rng, t, rng.randrange(2 * n)))
        return ["mobius", "--family", family, x, y]
    return draw


def _map(name: str):
    def draw(rng):
        if name in ("tau", "beta"):
            x = fmt_perm(random_perm(rng, rng.randint(1, MAX_S)))
        elif name in ("phi", "iota"):
            x = random_bileveled(rng, rng.randint(1, MAX_YM))
        else:
            x = format_tree(random_tree(rng, rng.randint(1, MAX_YM)))
        return ["map", name, x]
    return draw


def _top(family: str) -> int:
    return MAX_S if family == "S" else MAX_YM


def _element(rng, family: str, n: int) -> str:
    if family == "S":
        return fmt_perm(random_perm(rng, n))
    if family == "Y":
        return format_tree(random_tree(rng, n))
    return random_bileveled(rng, n)


def _mul(family: str, basis: str):
    def draw(rng):
        total = rng.randint(2, _top(family))
        p = rng.randint(1, total - 1)
        return ["op", "mul", "--family", family, "--basis", basis,
                _element(rng, family, p), _element(rng, family, total - p)]
    return draw


def _unary(op: str, family: str, basis: str):
    def draw(rng):
        x = _element(rng, family, rng.randint(1, _top(family)))
        return ["op", op, "--family", family, "--basis", basis, x]
    return draw


def _enumerate(family: str):
    def draw(rng):
        n = rng.randint(0, _top(family))
        return ["enumerate", "--family", family, "--n", str(n), "--count"]
    return draw


STRATA = (
    [("mobius-%s%d" % (f, n), _mobius(f, n))
     for f in ("S", "Y", "M") for n in range(1, _top(f) + 1)]
    + [("map-" + name, _map(name))
       for name in ("tau", "beta", "phi", "iota", "min", "max")]
    + [("mul-%s-%s" % (f, b), _mul(f, b))
       for f in ("S", "Y", "M") for b in ("F", "M")]
    + [("comul-%s-%s" % (f, b), _unary("comul", f, b))
       for f in ("S", "Y") for b in ("F", "M")]
    + [("rho-" + b, _unary("rho", "M", b)) for b in ("F", "M")]
    + [("enumerate-" + f, _enumerate(f)) for f in ("S", "Y", "M")]
)


def draw_pool(seed: int = POOL_SEED) -> dict:
    """Up to ``POOL_PER_STRATUM`` distinct queries per stratum."""
    rng = random.Random(seed)
    pool = {}
    for name, draw in STRATA:
        seen = []
        for _ in range(20 * POOL_PER_STRATUM):
            argv = draw(rng)
            if argv not in seen:
                seen.append(argv)
            if len(seen) == POOL_PER_STRATUM:
                break
        pool[name] = seen
    return pool


def draw_session(pool: dict, seed: int) -> list:
    """One session: ``SESSION_PER_STRATUM`` draws with replacement from
    every stratum, shuffled."""
    rng = random.Random(seed)
    session = [rng.choice(pool[name]) for name, _ in STRATA
               for _ in range(SESSION_PER_STRATUM)]
    rng.shuffle(session)
    return session


def expected_count(argv: list):
    """Independent expectation for ``enumerate --count``, else None."""
    if argv[0] != "enumerate":
        return None
    family, n = argv[2], int(argv[4])
    value = {"S": factorial(n), "Y": comb(2 * n, n) // (n + 1),
             "M": BILEVELED_COUNTS[n]}[family]
    return "%d\n" % value
