"""Fixtures shared by the test modules."""

import pytest

from treesym import hopf_modules as hm
from treesym import posets as po
from treesym import projections as pj

CACHES = (po.family_poset, pj.beta_fibers, hm._script_sets)


@pytest.fixture
def fresh_caches():
    """No order, beta-fiber table or index set built before the test, and
    none it built, perhaps from a mutated function, kept after it."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
