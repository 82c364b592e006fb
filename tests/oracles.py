"""Chain-counting oracles for Mobius values, used by the tests only.

Each works on any :class:`treesym.posets.FinitePoset` through its ``up`` and
``down`` bitmasks, independently of the sparse Mobius rows it checks.
"""

from typing import Iterator, Sequence


def all_chains(poset) -> Iterator[tuple]:
    """All nonempty chains, as tuples of elements in increasing order."""
    n = len(poset.elements)

    def extend(prefix: tuple, i: int) -> Iterator[tuple]:
        yield prefix
        above = poset.up[i] & ~(1 << i)
        m = above
        while m:
            j = (m & -m).bit_length() - 1
            yield from extend(prefix + (poset.elements[j],), j)
            m &= m - 1

    for i in range(n):
        yield from extend((poset.elements[i],), i)


def chain_sum(poset) -> int:
    """Sum of ``(-1)**edges`` over all nonempty chains; 1 on intervals."""
    n = len(poset.elements)
    memo = [None] * n

    def starting_at(i: int) -> int:
        if memo[i] is None:
            total = 1
            m = poset.up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                total -= starting_at(j)
                m &= m - 1
            memo[i] = total
        return memo[i]

    return sum(starting_at(i) for i in range(n))


def chain_sum_meeting_all_blocks(poset, blocks: Sequence[set]) -> int:
    """Sum of ``(-1)**edges`` over chains meeting every block."""
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    total = 0
    for chain in all_chains(poset):
        if {block_of[x] for x in chain} == set(range(len(blocks))):
            total += (-1) ** (len(chain) - 1)
    return total


def hall_mobius(poset, x, y) -> int:
    """Mobius value via chains from ``x`` to ``y`` (test oracle)."""
    if not poset.leq(x, y):
        return 0
    i0, j0 = poset.index[x], poset.index[y]
    memo: dict = {}

    def from_idx(i: int) -> int:
        if i == j0:
            return 1
        if i not in memo:
            total = 0
            m = poset.up[i] & poset.down[j0] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                total -= from_idx(j)
                m &= m - 1
            memo[i] = total
        return memo[i]

    return from_idx(i0)
