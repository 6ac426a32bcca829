"""Static checks on src/clawpoly, with the stdlib ast module only.

Every import in the package is of the standard library or of clawpoly
itself, so it runs on a bare interpreter. Every module except __init__
(whose imports are the package's re-exports) must use each name it
imports, and each public module-level function or class must be referred
to by some code other than its own definition: the rest of its module,
another src module (a `from .mod import name`, not the __init__
re-export), or a bench/*.py file. Code that only tests call is not part
of the package.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clawpoly"


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _names(nodes):
    return {n.id for top in nodes for n in ast.walk(top) if isinstance(n, ast.Name)}


def _bench_names():
    """Identifiers, attribute names and dotted string parts in bench/*.py;
    the benchmark also names functions in strings ("sampling.sample_box_points")."""
    out = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.replace(".", " ").split())
    return out


def _foreign_imports(trees):
    """Imported top-level modules that are neither stdlib nor clawpoly."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [
                f"{name}: {top}" for top in tops
                if top not in sys.stdlib_module_names and top != "clawpoly"
            ]
    return found


def _unused_imports(modules):
    found = []
    for name, tree in modules.items():
        used = _names(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append(f"{name}: {bound}")
    return found


def _unreferenced_public(modules, bench):
    imported = set()  # (module, name) pairs some other src module imports
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
    found = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (name, node.name) in imported:
                continue
            if node.name in bench or node.name in _names(n for n in tree.body if n is not node):
                continue
            found.append(f"{name}.{node.name}")
    return found


def test_imports_are_stdlib_or_clawpoly():
    init = SRC / "__init__.py"
    trees = {**_modules(), "__init__": ast.parse(init.read_text(), str(init))}
    assert _foreign_imports(trees) == []


def test_no_unused_imports():
    assert _unused_imports(_modules()) == []


def test_no_public_name_only_tests_use():
    assert _unreferenced_public(_modules(), _bench_names()) == []


def test_checks_catch_a_test_only_helper():
    helper = ast.parse("import os\n\n\ndef helper():\n    return 1\n")
    assert _unused_imports({"helper": helper}) == ["helper: os"]
    assert _unreferenced_public({"helper": helper}, set()) == ["helper.helper"]
    # one import from another module, or one bench reference, is enough
    user = ast.parse("from .helper import helper\n\nhelper()\n")
    assert _unreferenced_public({"helper": helper, "user": user}, set()) == []
    assert _unreferenced_public({"helper": helper}, {"helper"}) == []
    # a third-party import is flagged wherever it sits, a relative one never
    lanes = ast.parse(
        "import numpy as np\nfrom os import path\nfrom .halfspaces import x\n\n"
        "def f():\n    from scipy.linalg import lu\n    import clawpoly.engine\n"
    )
    assert _foreign_imports({"lanes": lanes}) == ["lanes: numpy", "lanes: scipy"]
