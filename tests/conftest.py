"""Fixtures shared by the test modules."""

import pytest

from treesym import hopf_modules as hm
from treesym import posets as po
from treesym import projections as pj
from treesym import trees_core as tc

CACHES = (po.family_poset, pj.beta_fibers, hm._script_sets, tc._tree_cuts)


@pytest.fixture
def fresh_caches():
    """No order, beta-fiber table, index set or cut table built before the
    test, and none it built, perhaps from a mutated function, kept after
    it."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
