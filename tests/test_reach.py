"""Every top-level definition of the package is reached by a command or
by the benchmark tracer, and those reached by the tracer alone are a
pinned list.

The pass reads the source, not the running code.  The roots of a
command are every module-level statement that is not a ``def`` or a
``class`` (the tables ``SUITES``, ``OPS``, ``MAP_TABLE``, ``GRAMMAR``,
``FAMILIES``, ``ORDERS``, ``SERIES``, ...), ``cli.main`` and ``cli.run``;
the tracer adds each name it wraps, and a ``Class.method`` entry roots
its class.  From a reached body the pass follows bare names, names bound
by ``from .x import y``, and ``alias.attr`` on the package's module
aliases.
"""

import ast
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treesym"
TRACER = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))

# Reached only through a name the tracer wraps: when the tracer stops
# wrapping these names, this is what leaves the package with them.
TRACER_ONLY = {
    ("hopf_algebra", "tensor_mul"),
    ("hopf_algebra", "_one_term_legs"),
    ("hopf_algebra", "_expand"),
    ("hopf_modules", "msym_action_F"),
    ("hopf_modules", "in_script_s"),
    ("posets", "weak_leq"),
    ("posets", "inversion_set"),
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _scopes(modules: dict) -> tuple:
    """The top-level definitions, keyed by ``(module, name)``, and for
    each module the names it binds to a definition and to a module of the
    package."""
    defs, names, aliases = {}, {}, {}
    for mod, tree in modules.items():
        names[mod], aliases[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                names[mod][node.name] = (mod, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        aliases[mod][bound] = alias.name
                    else:
                        names[mod][bound] = (node.module, alias.name)
    return defs, names, aliases


def _referenced(mod: str, node, names: dict, aliases: dict) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names[mod]:
            found.add(names[mod][sub.id])
        elif isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id in aliases[mod]:
            found.add((aliases[mod][sub.value.id], sub.attr))
    return found


def unreached(tracer: bool = True) -> set:
    """The definitions that no command reaches, nor, when ``tracer``, a
    name the tracer wraps."""
    modules = _modules()
    defs, names, aliases = _scopes(modules)
    todo = [("cli", "main"), ("cli", "run")]
    if tracer:
        for module, attr in list(TRACER["SPANS"].values()) \
                + list(TRACER["COUNTED"].values()):
            todo.append((module, attr.split(".")[0]))
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo += _referenced(mod, node, names, aliases)
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        todo += _referenced(key[0], defs[key], names, aliases)
    return set(defs) - seen


def test_every_definition_is_reached():
    assert unreached() == set()


def test_the_tracer_alone_reaches_the_pinned_definitions():
    assert unreached(tracer=False) == TRACER_ONLY
