"""Static checks on src/clawpoly, with the stdlib ast module only.

Every import in the package is of the standard library or of clawpoly
itself, so it runs on a bare interpreter. Every module except __init__
(which imports no submodule: it loads its public names lazily) must use
each name it imports, and an import inside a function must be used in that
function. Each public module-level function or class, and each public
method of a public class, must be referred to (as a name, an attribute or
an import) by src code outside its own definition and outside the
__init__ name table, or by bench/tasks.py. Code that only tests call is
not part of the package.

Numbers from users are read as ASCII only: no string in the package
(docstrings aside) holds the regex class \\d, which matches every Unicode
digit, and no add_argument reads its value with int(), which also takes
underscores, other digit scripts and whitespace.

No module imports logging outside a function: engine and suites log
through errors.InfoLog, and only cli.main imports logging, under -v.

Only cli.main prints or calls write_text: the handlers return their record
and file, and main writes the file before it prints the record.

One cap policy: only halfspaces calls the system builders; every other
module builds a system through halfspaces.model_system, which refuses a
system past the generation cap before building it.

One point form: a point enters the package once, through
rationals.scale_to_ints, which only cli (reading a V-file) and engine
(building the hull's integer rows) call; every check reads the ScaledPoint
it is given.

No option only tests turn on: every parameter with a default, of every
function in the package, is passed by keyword or by position in some call,
in src code outside that function's own definition or in bench/tasks.py.
cli.main's argv, the console entry point's, is exempt.
"""

import ast
import sys
from collections import Counter
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


# bench/spans.py wraps these by name; no src code or bench task calls them
SPAN_WRAPPED = ("linalg.kernel_vector", "linalg.affine_rank",
                "halfspaces.InequalitySystem.tight_set")


def _bench_tasks():
    """The parsed bench/tasks.py, the code the benchmark runs."""
    path = ROOT / "bench" / "tasks.py"
    return ast.parse(path.read_text(), str(path))


def _bench_task_names():
    """Identifiers, attribute names and dotted string parts in
    bench/tasks.py; it also names functions in strings
    ("sampling.sample_box_points")."""
    out = set()
    for node in ast.walk(_bench_tasks()):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.replace(".", " ").split())
    return out


def _absolute_imports(node):
    """The top-level modules an import statement imports by absolute name."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _foreign_imports(trees):
    """Imported top-level modules that are neither stdlib nor clawpoly."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            found += [
                f"{name}: {top}" for top in _absolute_imports(node)
                if top not in sys.stdlib_module_names and top != "clawpoly"
            ]
    return found


def _module_level_logging(trees):
    """Modules that import logging outside any function."""
    return [name for name, tree in trees.items()
            if any("logging" in _absolute_imports(node) for node in _scope_imports(tree.body))]


def _scope_imports(body):
    """The import statements of one scope, in source order: its own
    statements and their blocks, not the functions and classes it defines."""
    found, stack = [], list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda node: node.lineno)


def _unused_imports(modules):
    """A module-level import must be used in its module, and an import
    inside a function in that function."""
    found = []
    for name, tree in modules.items():
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope, label in [(tree, name)] + [(f, f"{name}.{f.name}") for f in functions]:
            used = _names(scope.body)
            for node in _scope_imports(scope.body):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append(f"{label}: {bound}")
    return found


def _references(node):
    """How often each name, attribute name and from-imported name occurs
    under a node."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def _public_definitions(name, tree):
    """(label, node) of each public function and class of a module, and of
    each public method of its public classes ('module.Class.method')."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield f"{name}.{top.name}", top
            if isinstance(top, ast.ClassDef):
                yield from ((f"{name}.{top.name}.{node.name}", node) for node in top.body
                            if isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_"))


def _unreferenced_public(modules, bench):
    """Public definitions that no module refers to outside their own
    definition, and whose name bench does not hold."""
    used = sum((_references(tree) for tree in modules.values()), Counter())
    return [
        label for name, tree in modules.items() for label, node in _public_definitions(name, tree)
        if node.name not in bench and used[node.name] == _references(node)[node.name]
    ]


def _docstrings(tree):
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _unicode_digit_classes(modules):
    """Strings other than docstrings that hold the regex class \\d."""
    found = []
    for name, tree in modules.items():
        docs = _docstrings(tree)
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "\\d" in node.value and id(node) not in docs
        ]
    return found


def _int_arguments(modules):
    """add_argument calls that read their value with type=int."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in modules.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"
                for kw in node.keywords)
    ]


def _output_calls(modules):
    """Top-level definitions other than cli.main that call print or write_text."""
    found = []
    for name, tree in modules.items():
        for top in tree.body:
            label = f"{name}.{top.name}" if hasattr(top, "name") else name
            if label == "cli.main":
                continue
            if any(isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                   in ("print", "write_text")
                   for node in ast.walk(top)):
                found.append(label)
    return found


BUILDERS = ("kimura3_system", "kimura3_prime_system", "demihypercube_system")


def _definitions(name, tree):
    """(label, node) per top-level statement of a module: 'module.function',
    'module.Class.method' per statement of a class body, else 'module'."""
    for top in tree.body:
        label = f"{name}.{top.name}" if hasattr(top, "name") else name
        if not isinstance(top, ast.ClassDef):
            yield label, top
            continue
        for node in top.body:
            yield (f"{label}.{node.name}" if hasattr(node, "name") else label), node


def _calls(modules, callees, allowed):
    """Calls of the callees outside the allowed modules, as
    'label: callee' (labels of _definitions), one per call site."""
    found = []
    for name, tree in modules.items():
        if name in allowed:
            continue
        for label, top in _definitions(name, tree):
            found += [
                f"{label}: {callee}" for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and (callee := getattr(node.func, "id", None)
                     or getattr(node.func, "attr", None)) in callees
            ]
    return found


def _builder_calls(modules):
    """Calls of a system builder outside halfspaces."""
    return _calls(modules, BUILDERS, ("halfspaces",))


def _scale_calls(modules):
    """Calls of rationals.scale_to_ints outside cli and engine."""
    return _calls(modules, ("scale_to_ints",), ("cli", "engine"))


def _defaulted_parameters(func, method):
    """(name, position) of each parameter of a def that has a default; the
    position counts the arguments a call passes (self or cls excluded), None
    for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method and positional else 0
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _functions(tree):
    """(name, def, is_method) for every function under a tree; a method's
    name is 'Class.method'."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not isinstance(node, ast.ClassDef):
                    yield child.name, child, False
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                yield f"{node.name}.{child.name}", child, not static


def _passes(call, name, position):
    """Whether a call passes the parameter by keyword (or **) or by position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unpassed_defaults(modules, bench):
    """'module.function(param)' for each defaulted parameter that no call
    outside its own definition passes; bench is the parsed bench/tasks.py."""
    calls = [node for tree in [*modules.values(), bench] for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for name, tree in modules.items():
        for qualname, func, method in _functions(tree):
            label = f"{name}.{qualname}"
            own = {id(node) for node in ast.walk(func)}
            callers = [call for call in calls if id(call) not in own
                       and (getattr(call.func, "id", None)
                            or getattr(call.func, "attr", None)) == func.name]
            found += [
                f"{label}({param})" for param, position in _defaulted_parameters(func, method)
                if (label, param) != ("cli.main", "argv")
                and not any(_passes(call, param, position) for call in callers)
            ]
    return found


def test_imports_are_stdlib_or_clawpoly():
    init = SRC / "__init__.py"
    trees = {**_modules(), "__init__": ast.parse(init.read_text(), str(init))}
    assert _foreign_imports(trees) == []


def test_logging_is_imported_only_under_verbose():
    init = SRC / "__init__.py"
    trees = {**_modules(), "__init__": ast.parse(init.read_text(), str(init))}
    assert _module_level_logging(trees) == []


def test_checks_catch_a_module_level_logging_import():
    engine = ast.parse("import logging\n\nlog = logging.getLogger('clawpoly.engine')\n")
    suites = ast.parse("if True:\n    from logging import getLogger\n")
    cli = ast.parse("def main(verbose):\n    if verbose:\n        import logging\n")
    assert _module_level_logging({"engine": engine, "suites": suites, "cli": cli}) == [
        "engine", "suites",
    ]


def test_no_unused_imports():
    assert _unused_imports(_modules()) == []


def test_no_public_name_only_tests_use():
    found = _unreferenced_public(_modules(), _bench_task_names())
    assert [label for label in found if label not in SPAN_WRAPPED] == []


def test_checks_catch_a_test_only_helper():
    helper = ast.parse("import os\n\n\ndef helper():\n    return 1\n")
    assert _unused_imports({"helper": helper}) == ["helper: os"]
    # an import inside a function counts only where that function uses it
    local = ast.parse(
        "import json\n\n\ndef f():\n    import os\n    return json\n\n\n"
        "def g(x):\n    if x:\n        import re\n        return re, os\n"
    )
    assert _unused_imports({"local": local}) == ["local.f: os"]
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


def test_checks_catch_code_only_tests_call():
    suites = ast.parse(
        "class Report:\n    def summary(self):\n        return self.summary()\n\n"
        "    def _detail(self):\n        return 1\n\n"
        "    def passed(self):\n        return True\n\n\n"
        "def run_one(m):\n    return run_one(m - 1) if m else Report()\n\n\n"
        "def run_both(m):\n    return Report().passed()\n"
    )
    # a call inside its own definition is no reference; private methods are not checked
    assert _unreferenced_public({"suites": suites}, set()) == [
        "suites.Report.summary", "suites.run_one", "suites.run_both",
    ]
    # an attribute of another module counts, and so does a name a bench task holds
    cli = ast.parse("from . import suites\n\nREPORT = suites.run_both(3)\n")
    assert _unreferenced_public({"suites": suites, "cli": cli}, {"run_one"}) == [
        "suites.Report.summary",
    ]


def test_no_unicode_digit_class_in_a_regex():
    assert _unicode_digit_classes(_modules()) == []


def test_no_int_typed_cli_argument():
    assert _int_arguments(_modules()) == []


def test_checks_catch_unicode_digits():
    mod = ast.parse(
        'r"""Reads \\d+ nowhere."""\nimport re\n\nPAT = re.compile(r"^z(\\d+)$")\n\n\n'
        'def f(p):\n    r"""\\d in a docstring is prose."""\n    return re.fullmatch("[0-9]+", p)\n'
    )
    assert _unicode_digit_classes({"mod": mod}) == ["mod:4"]
    cli = ast.parse(
        "p.add_argument('--leaves', type=int)\np.add_argument('--seed', type=parse_int)\n"
        "p.add_argument('--out')\n"
    )
    assert _int_arguments({"cli": cli}) == ["cli:1"]


def test_only_main_prints_or_writes():
    assert _output_calls(_modules()) == []


def test_checks_catch_output_outside_main():
    cli = ast.parse(
        "def _emit(pairs):\n    print(pairs)\n\n\n"
        "def cmd_verify(args):\n    def later():\n        write_text(args.path, '')\n\n\n"
        "def cmd_stats(args):\n    return [('command', 'stats')], None, 0\n\n\n"
        "def main(argv=None):\n    write_text('x', 'y')\n    print('error', file=sys.stderr)\n"
    )
    assert _output_calls({"cli": cli}) == ["cli._emit", "cli.cmd_verify"]
    other = ast.parse("from pathlib import Path\n\n\ndef main():\n    Path('x').write_text('')\n")
    assert _output_calls({"other": other}) == ["other.main"]


def test_systems_are_built_under_the_cap():
    assert _builder_calls(_modules()) == []


def test_checks_catch_a_builder_call():
    suites = ast.parse(
        "from . import halfspaces\nfrom .halfspaces import kimura3_system, model_system\n\n\n"
        "def run(m):\n    def both():\n        return kimura3_system(m), "
        "halfspaces.kimura3_prime_system(m)\n    return both(), model_system('binary', m)\n\n\n"
        "BUILDER = kimura3_system\nSMALL = halfspaces.demihypercube_system(3)\n"
    )
    # a nested call counts against its top-level definition; a bare reference is no call
    assert _builder_calls({"suites": suites}) == [
        "suites.run: kimura3_system", "suites.run: kimura3_prime_system",
        "suites: demihypercube_system",
    ]
    halfspaces = ast.parse("def model_system(m):\n    return kimura3_system(m)\n")
    assert _builder_calls({"halfspaces": halfspaces}) == []


def test_a_point_is_scaled_once():
    assert _scale_calls(_modules()) == []


def test_checks_catch_a_second_scaling():
    halfspaces = ast.parse(
        "from . import rationals\nfrom .rationals import scale_to_ints\n\n\n"
        "class InequalitySystem:\n    size = len(scale_to_ints((0,)))\n\n"
        "    def membership(self, point):\n        return scale_to_ints(point)\n\n"
        "    def tight_set(self, point):\n        return self.membership(point)\n\n\n"
        "def loose(p):\n    return rationals.scale_to_ints(p)\n\n\n"
        "ORIGIN = scale_to_ints((0, 0))\n"
    )
    # a method counts against its class and name, a class-body call against the class
    assert _scale_calls({"halfspaces": halfspaces}) == [
        "halfspaces.InequalitySystem: scale_to_ints",
        "halfspaces.InequalitySystem.membership: scale_to_ints",
        "halfspaces.loose: scale_to_ints", "halfspaces: scale_to_ints",
    ]
    # the V-file reader and the hull read points in; a bare reference is no call
    cli = ast.parse("def read(p):\n    return scale_to_ints(p)\n")
    witness = ast.parse("from .rationals import scale_to_ints\n\nSCALE = scale_to_ints\n")
    assert _scale_calls({"cli": cli, "engine": cli, "witness": witness}) == []


def test_every_default_is_passed_somewhere():
    assert _unpassed_defaults(_modules(), _bench_tasks()) == []


def test_checks_catch_a_test_only_option():
    engine = ast.parse(
        "def hull(points, group=None, *, fast=False, trace=None):\n"
        "    return hull(points, fast=True)\n\n\n"
        "class Cone:\n    def run(self, rows, limit=10):\n        return rows\n\n"
        "    @staticmethod\n    def build(rows, limit=10):\n        return Cone()\n\n\n"
        "def stats(pts):\n    return hull(pts, 'z2z2'), Cone.build(pts, 3), Cone().run(pts)\n"
    )
    # a call inside its own definition is no caller; self is not a position
    assert _unpassed_defaults({"engine": engine}, ast.parse("")) == [
        "engine.hull(fast)", "engine.hull(trace)", "engine.Cone.run(limit)",
    ]
    # a keyword, a ** mapping or a bench task's call is enough; cli.main's argv is exempt
    suites = ast.parse("def go(pts, opts):\n    return hull(pts, fast=True), Cone().run(**opts)\n")
    bench = ast.parse("engine.hull([], trace=print)\n")
    cli = ast.parse("def main(argv=None):\n    return 0\n")
    assert _unpassed_defaults({"engine": engine, "suites": suites, "cli": cli}, bench) == []
