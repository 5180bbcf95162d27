"""Every hypwave module declares __all__, every name in it exists, and
every name it imports is used; the tests and scripts import nothing they
leave unused either. The runtime depends on numpy alone, and the test
settings let a failing hypothesis property report like any other test.

A stale entry (a class deleted but still exported) breaks
``from hypwave.<module> import *`` only when someone tries it; this test
fails as soon as the entry goes stale. No linter ships with the project,
so a stdlib ast scan stands in for one on unused imports and on scipy,
which only the tests use.
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def _imported_modules(tree):
    """Every module an import statement names, at any depth of the tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_scipy_import(name):
    path = SCANNED[name]
    found = [m for m in _imported_modules(ast.parse(path.read_text(), str(path)))
             if m.split(".")[0] == "scipy"]
    assert not found, f"hypwave.{name} imports {found}; scipy is a test dependency"


def test_scipy_scan_sees_function_level_imports():
    tree = ast.parse("import os\n"
                     "def f():\n"
                     "    from scipy.integrate import quad\n"
                     "    import scipy.special as sp\n"
                     "from .meanprop import x\n")
    assert _imported_modules(tree) == ["os", "scipy.integrate", "scipy.special"]


def test_runtime_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_does_not_end_the_session(tmp_path):
    # with the project's pytest settings a failing @given test reports its
    # falsifying example and the session goes on to the next test
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
