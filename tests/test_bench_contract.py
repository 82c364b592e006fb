"""The names the benchmark tracer wraps still exist and keep their shapes,
the results it counts keep theirs, and every name a module of the package
exports exists.

``perfbench/tracer.py`` replaces module attributes of the package with
wrappers; a renamed or reshaped function would make a traced benchmark run
crash.  The tracer source is executed here without importing it as a
module, so nothing is written under ``perfbench/``.
"""

import importlib
import inspect
import pathlib
import pkgutil
import runpy

import pytest

import treesym
from treesym import cli
from treesym import hopf_algebra as ha
from treesym import hopf_modules as hm
from treesym import trees_core as tc

TRACER = runpy.run_path(str(
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))


@pytest.mark.parametrize("module,attr", sorted(
    set(TRACER["SPANS"].values()) | set(TRACER["COUNTED"].values())))
def test_every_wrapped_name_resolves(module, attr):
    owner = importlib.import_module("%s.%s" % (TRACER["PACKAGE"], module))
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_splitting_shapes():
    b = tc.parse_bileveled("((..)(..));{1,2}")
    assert inspect.isgenerator(tc.restricted_splittings(b, 1))
    assert type(tc.splittings("S", (2, 1), 1)) is list
    assert type(tc.splittings("M", b, 2)) is list


def test_kernel_takes_the_degree_first():
    assert next(iter(inspect.signature(hm.coinvariant_kernel).parameters)) \
        == "n"


def _rho():
    return ha.coaction_rho(ha.F("M", tc.parse_bileveled("((..).);{1,2}")))


# one call of each wrapped ``hopf_algebra`` function
TRACED_CALLS = {
    "mul_F": lambda: ha.mul_F(ha.F("S", (2, 1)), ha.F("S", (1,))),
    "to_M": lambda: ha.to_M(ha.F("S", (2, 1))),
    "to_F": lambda: ha.to_F(ha.Mb("S", (2, 1))),
    "tensor_mul": lambda: ha.tensor_mul(_rho(), _rho(), ha.mul_F, ha.mul_F),
    "coaction_rho": _rho,
}


def test_traced_results_keep_their_shapes():
    """The tracer adds up ``len(result.terms)`` over the wrapped
    ``hopf_algebra`` functions and ``len(kernel)`` over the kernel solves."""
    wrapped = {attr for module, attr in TRACER["SPANS"].values()
               if module == "hopf_algebra"}
    assert wrapped == set(TRACED_CALLS)
    for name, call in TRACED_CALLS.items():
        result = call()
        assert type(result.terms) is dict and result.terms, name
    kernel = hm.coinvariant_kernel(3, restricted=True)
    assert type(kernel) is list and kernel
    assert len(kernel) == len(hm.b_basis(3))


def test_map_table_holds_triples():
    for name, entry in cli.MAP_TABLE.items():
        src, dst, fn = entry
        assert src in tc.FAMILIES and dst in tc.FAMILIES and callable(fn), name


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(treesym.__path__)))
def test_every_exported_name_resolves(module):
    owner = importlib.import_module("treesym." + module)
    missing = [name for name in owner.__all__ if not hasattr(owner, name)]
    assert not missing, missing
