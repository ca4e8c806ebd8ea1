"""Package hygiene: every exported name exists, no module imports a name it never uses
or defines a private name it never reads, and every public function has a caller."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest
from test_perfbench_layers import load_layers

import fockpr

# the submodules; the package ``__init__``, which only re-exports, is not among them
MODULES = sorted(info.name for info in pkgutil.iter_modules(fockpr.__path__))


def module_tree(name: str) -> ast.Module:
    path = Path(fockpr.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line it is bound on."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"fockpr.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    tree = module_tree(name)
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items() if n not in used}
    assert unused == {}


def imported_submodules(tree: ast.Module) -> set[str]:
    """The fockpr submodules a module imports from, by relative or absolute name."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = f"fockpr.{base}".rstrip(".")
            if base == "fockpr":  # ``from . import x`` binds the submodule x
                dotted += [f"fockpr.{alias.name}" for alias in node.names]
            else:
                dotted.append(base)
        elif isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("fockpr.")}


# the modules that build and hold point sets
SET_LAYER = {"pointset", "sampler"}


def reachable_submodules(name: str) -> set[str]:
    """The fockpr submodules ``name`` imports, directly or through other submodules."""
    seen, todo = set(), [name]
    while todo:
        for dep in imported_submodules(module_tree(todo.pop())) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


@pytest.mark.parametrize("name", ["fock", "special", "gabor", "phaseless"])
def test_analytic_modules_do_not_import_the_set_layer(name):
    assert reachable_submodules(name) & SET_LAYER == set()


def test_submodule_imports_are_read_in_every_form():
    tree = ast.parse(
        "from . import a\nfrom .b import x\nfrom fockpr.c import y\n"
        "from fockpr import d\nimport fockpr.e\nimport numpy\nfrom math import pi"
    )
    assert imported_submodules(tree) == {"a", "b", "c", "d", "e"}


def private_imports(tree: ast.Module) -> dict[str, int]:
    """Each private name the module imports from a fockpr module, with its line."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "fockpr"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found[alias.name] = node.lineno
    return found


def test_private_imports_are_read_in_every_form():
    tree = ast.parse(
        "from .a import _x, y\nfrom . import _b\nfrom fockpr.c import _z\n"
        "from fockpr import __version__\nfrom math import _d\nfrom fockprx import _e"
    )
    assert private_imports(tree) == {"_x": 1, "_b": 2, "_z": 3}


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_module_imports_a_private_name_of_another(name):
    # a name another module needs is public in the module that owns it
    assert private_imports(module_tree(name)) == {}


def private_module_names(tree: ast.Module) -> dict[str, int]:
    """Each private name a module-level statement defines, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


@pytest.mark.parametrize("name", MODULES)
def test_no_module_defines_a_private_name_it_never_reads(name):
    tree = module_tree(name)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = {n: line for n, line in private_module_names(tree).items() if n not in read}
    assert unread == {}


# Public functions without a caller yet, each with the ROADMAP direction that
# gives it one.
PENDING = {
    "pointset.relative_separation_bound": "Direction 1: certify reports it",
    "sampler.reflection_closure": "Direction 3: the real and even-real class rows use it",
}
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def public_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module-level public functions and public methods of module-level classes.

    Keyed ``name`` or ``Class.name``.  Dunder methods are left out: syntax
    calls them, not a name.
    """
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item
    return found


def read_names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unreached_functions() -> list[str]:
    """Public functions and methods of ``src/fockpr`` that nothing reaches, as ``module.name``.

    A function is reached when ``src/`` reads its name outside its own
    definition, when a benchmark layer of ``perfbench/spans.py`` wraps it,
    or when ``tests/test_acceptance.py`` reads it.  The match is by name
    alone, so a function that shares its name with anything read elsewhere
    (a local variable, a dict's ``items``, another class's ``from_json``)
    counts as reached: the check is blind to it.
    """
    src = Path(fockpr.__file__).parent
    in_src = sum((read_names(ast.parse(p.read_text())) for p in src.glob("*.py")), Counter())
    wrapped = {layer.attr.split(".")[-1] for layer in load_layers()}
    accepted = read_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = []
    for name in MODULES:
        for qualname, node in public_functions(module_tree(name)).items():
            elsewhere = in_src[node.name] - read_names(node)[node.name]
            if elsewhere <= 0 and node.name not in wrapped and node.name not in accepted:
                unreached.append(f"{name}.{qualname}")
    return sorted(unreached)


def test_every_public_function_has_a_caller():
    """A public function no subcommand, benchmark layer or acceptance criterion
    reaches is deleted, or named in ``PENDING``; a pending one that gains a
    caller leaves it."""
    assert unreached_functions() == sorted(PENDING)
