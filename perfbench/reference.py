"""A fixed reference process that gauges the machine's speed.

    python3 perfbench/reference.py

It imports nothing from treesym: it builds the inversion sets of all 5040
permutations of 7 letters and compares some of them by inclusion, the same
kind of interpreter work (tuples, frozensets, dicts) that the weak-order
code does.  ``run.py`` spawns it before every timed command and scales the
run's times by its median wall time, so that a stretch in which the shared
machine runs slowly slows both alike.  It prints a fixed count.
"""

from itertools import permutations

N = 7
inversions = {}
for w in permutations(range(N)):
    inversions[w] = frozenset((w[i], w[j]) for i in range(N)
                              for j in range(i + 1, N) if w[i] > w[j])
keys = list(inversions)
below = 0
for i, w in enumerate(keys[:1500]):
    for v in keys[i:i + 60]:
        below += inversions[w] <= inversions[v]
print(below)
