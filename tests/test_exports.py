"""Every hypwave module declares __all__, every name in it exists, and
every name it imports is used; the tests and scripts import nothing they
leave unused either.

A stale entry (a class deleted but still exported) breaks
``from hypwave.<module> import *`` only when someone tries it; this test
fails as soon as the entry goes stale. No linter ships with the project,
so a stdlib ast scan stands in for one on unused imports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hypwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(hypwave.__path__))
ROOT = Path(__file__).resolve().parent.parent
# a module by its name, a test or script file by its path from the root
SCANNED = {name: Path(hypwave.__path__[0]) / f"{name}.py" for name in MODULES}
SCANNED.update((f"{d}/{p.name}", p) for d in ("tests", "scripts")
               for p in sorted((ROOT / d).glob("*.py")))


def test_every_module_is_listed():
    assert MODULES == ["blowlab", "cli", "fdoracle", "globalsolver", "hypgeo",
                       "meanprop", "nonlin"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hypwave.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"hypwave.{name}.__all__ names missing {missing}"


def _unused_imports(tree):
    """Names an import binds that nothing in its scope reads.

    A module-level import counts as used anywhere in the module or in
    __all__; one inside a function counts as used only inside that
    function. ``from __future__`` imports are directives, not names.
    """
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    unused = []
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        bound, stack = {}, list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
            stack.extend(ast.iter_child_nodes(node))
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= exported
        unused += [f"{name} (line {line})" for name, line in bound.items()
                   if name not in used]
    return unused


@pytest.mark.parametrize("name", list(SCANNED))
def test_no_unused_imports(name):
    path = SCANNED[name]
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{name} imports but never uses {unused}"


def test_unused_import_scan_sees_both_scopes():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from a import b, c\n"
        "__all__ = ['c']\n"
        "def f():\n"
        "    from d import e, g\n"
        "    return np.zeros(1), g\n")
    assert sorted(_unused_imports(tree)) == ["b (line 3)", "e (line 6)",
                                             "os (line 2)"]
