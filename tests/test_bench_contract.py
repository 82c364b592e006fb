"""The names the benchmark tracer wraps still exist and keep their shapes,
and every name a module of the package exports exists.

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
