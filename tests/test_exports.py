"""Every hypwave module declares __all__, every name in it exists, and
every name it imports is used; the tests and scripts import nothing they
leave unused either. Every top-level definition in src is reached from a
command, a script, the bench or the acceptance gate, or is listed in KEPT
with the reason it stays. The runtime depends on numpy alone, and the test
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


# Top-level src definitions that no command, script, bench file or gate
# criterion reaches, and why each stays.
KEPT = {
    "W_evaluator": "claim_bound_check's reference in tests/references.py",
    "area_lower_bound": "the parabolic area factor of boost_sequence's "
                        "constants, checked by brute force over _mask_T",
    "_mask_R": "R_{r,t}, inside which _mask_T's region lies",
    "_mask_T": "T^l_{r,t}, the region of area_lower_bound's brute-force check",
    "kernel_lower_integral": "the step I >= ... that the blow-up lower "
                             "bounds rest on",
    "G_envelope": "the envelope that checks fit_A's A, on which a computed "
                  "contraction constant builds",
    "lipschitz_diff_bound": "the difference bound that checks fit_A's A",
    "w_majorant": "a lemma of the paper, to be shown in a command's CSV",
    "r_operator": "a lemma of the paper, to be shown in a command's CSV",
    "dt_r_bound_check": "a lemma of the paper, to be shown in a command's "
                        "CSV",
}


def _mentions(node):
    """Every name a node reads: plain names, attribute names (as in
    gs.picard_solve) and the names a from-import binds."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(a.name for a in n.names)
    return found


def _unreached(trees, roots):
    """The top-level definitions of the module trees that neither the
    root names nor the modules' other top-level statements reach.

    A reached name reaches every definition of that name in any module,
    and a reached definition reaches every name it mentions, so the scan
    over-counts what is reached rather than miss a call.
    """
    defs, seen = {}, set(roots)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                seen |= _mentions(node)
    todo = list(seen)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = _mentions(node) - seen
            seen |= new
            todo += new
    return sorted(set(defs) - seen)


def _roots():
    """cli.main, cli.run and the cmd_* handlers, every name the scripts,
    the bench files and the acceptance gate read, and the class and
    attribute strings that bench/tracer.py patches by name."""
    cli = ast.parse(SCANNED["cli"].read_text())
    roots = {"main", "run"} | {n.name for n in cli.body
                               if isinstance(n, ast.FunctionDef)
                               and n.name.startswith("cmd_")}
    files = [*sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        roots |= _mentions(ast.parse(path.read_text(), str(path)))
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    targets = next(ast.literal_eval(n.value) for n in tracer.body
                   if isinstance(n, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in n.targets))
    return roots | {name for _, cls, attr, _ in targets
                    for name in (cls, attr) if name}


def _src_trees():
    return [ast.parse(SCANNED[name].read_text()) for name in MODULES]


def test_every_src_definition_is_reached():
    unreached = _unreached(_src_trees(), _roots() | set(KEPT))
    assert not unreached, (
        f"only tests reach {unreached}: delete them, or add each to KEPT "
        "with the reason it stays")


def test_every_kept_name_needs_keeping():
    # a KEPT entry names a src definition that nothing else reaches
    stale = set(KEPT) - set(_unreached(_src_trees(), _roots()))
    assert not stale, f"KEPT names {sorted(stale)}, which are reached or gone"


def test_reachability_scan_follows_mentions():
    trees = [ast.parse("X = helper\n"
                       "def helper():\n    return _inner()\n"
                       "def _inner():\n    return b.deep\n"
                       "def orphan():\n    return _inner()\n"
                       "class Tool:\n"
                       "    def method(self):\n        return lonely()\n"),
             ast.parse("def deep():\n    pass\n"
                       "def lonely():\n    pass\n"
                       "def named():\n    pass\n")]
    assert _unreached(trees, set()) == ["Tool", "lonely", "named", "orphan"]
    assert _unreached(trees, {"Tool", "named"}) == ["orphan"]


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
