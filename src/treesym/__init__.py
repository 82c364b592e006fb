"""Exact combinatorics of permutations, bi-leveled trees, and binary trees.

The package provides the three graded families (permutations under the weak
order, bi-leveled trees under the induced order, planar binary trees under
the Tamari order), the projection maps between them with their
order-preserving sections, exact Mobius functions, the graded product /
coproduct / coaction structures on the spanned vector spaces, the module and
comodule structures relating them, coinvariant computations, and exact
truncated enumerating series.  All arithmetic is exact integer arithmetic;
everything is verified by exhaustive computation in the tests.
"""

from . import trees_core, posets, projections

__all__ = ["trees_core", "posets", "projections"]
