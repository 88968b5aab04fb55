"""Import, definitions, parameters and fields lint: every name a
``dgkoszul`` module imports is used in it, and none is another
``dgkoszul`` module's private (underscore-prefixed) name; it divides with
``/`` only in ``FieldSpec.inv``; every top-level function and class it
defines, and every method of such a class bar the dunder ones, is named
somewhere else in the project and is reached from a command, module-level
code or an acceptance criterion; every parameter of a top-level function
or method is read in its body, and every defaulted one is passed by some
call and omitted by another; and every field of a class is read
somewhere in the project.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for flake8's F401 and a dead-code finder.  An import meant as a re-export
is marked on its line with ``# noqa: F401``.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgkoszul

PACKAGE = Path(dgkoszul.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SOURCES = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_lint_catches_an_unused_import(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("import json\nfrom os import path, sep\n"
                 "from sys import argv  # noqa: F401\n"
                 "def f():\n    return path, sep\n")
    assert unused_imports(p) == ["mod.py:1: json"]


# the standard-library modules ``dataclasses`` pulls in at import, which
# a command's start-up does not pay for
START_UP_FREE = ("dataclasses", "inspect", "ast", "dis")


def test_cli_start_up_imports_no_dataclass_machinery():
    code = ("import sys, dgkoszul.cli; print(' '.join(m for m in "
            f"{START_UP_FREE!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom)
                and node.module == "dataclasses"]


def private_imports(path: Path) -> list:
    """Underscore-prefixed names, dunders aside, imported from a
    ``dgkoszul`` module.  A module reaches another's helpers through its
    public functions, so that ``_echelon`` stays behind ``rank`` and
    ``span_echelon``, the two entry points of the elimination, each of
    which checks its entries once."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dgkoszul"
            for alias in node.names if alias.name.startswith("_")
            and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports(path):
    assert private_imports(path) == []


def test_lint_catches_a_private_import(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("from dgkoszul.exactlinalg import _echelon, rank\n"
                 "from os import _exit\n"
                 "from dgkoszul import __version__\n"
                 "from dgkoszul.gradedcomplex import homology as _h\n"
                 "def f():\n"
                 "    from dgkoszul import _version\n"
                 "    return _echelon, rank, _exit, __version__, _h, _version\n")
    assert private_imports(p) == ["mod.py:1: _echelon", "mod.py:6: _version"]


def true_divisions(path: Path) -> list:
    """``/`` and ``/=`` outside ``FieldSpec.inv``.  A rational scalar may
    be a plain int, and int / int is a float, so the one division stays
    where a Fraction is made first."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "FieldSpec" for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "inv"
               for node in ast.walk(fn)}
    return [f"{path.name}:{line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div) and id(node) not in allowed)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_true_division(path):
    assert true_divisions(path) == []


def test_lint_catches_a_true_division(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("class FieldSpec:\n"
                 "    def inv(self, a):\n"
                 "        return 1 / a\n\n"
                 "    def div(self, a, b):\n"
                 "        return a / b\n\n"
                 "def f(a, b):\n"
                 "    a /= b\n"
                 "    return a // b, '1 / 2'\n")
    assert true_divisions(p) == ["mod.py:6", "mod.py:9"]


def used_names(nodes) -> set:
    """The identifiers under the AST nodes, as names, attributes or
    imports."""
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.name.split(".")[-1]
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def referenced_names(roots) -> set:
    """Every identifier a .py file under ``roots`` reads, imports, or
    spells as a string constant (perfbench looks functions up by name)."""
    names = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names |= used_names([tree]) | {
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    return names


def unreferenced_definitions(modules, roots) -> list:
    """Top-level functions and classes, and the non-dunder methods of
    top-level classes, whose names no file under ``roots`` uses."""
    names = referenced_names(roots)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node for node in tree.body
                if isinstance(node, (*funcs, ast.ClassDef))]
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, funcs)
                 and not (node.name.startswith("__")
                          and node.name.endswith("__"))]
        out += [f"{path.name}:{node.lineno}: {node.name}"
                for node in sorted(defs, key=lambda node: node.lineno)
                if node.name not in names]
    return out


def test_no_unreferenced_definitions():
    assert unreferenced_definitions(MODULES, SOURCES) == []


def test_lint_catches_an_unreferenced_definition(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("class Used:\n"
                 "    def __repr__(self):\n        return ''\n\n"
                 "    def called(self):\n        return 1\n\n"
                 "    def never_called(self):\n        return 2\n\n"
                 "def dead():\n    return Used().called()\n")
    assert unreferenced_definitions([p], [tmp_path]) == [
        "mod.py:8: never_called", "mod.py:11: dead"]


def unreached_definitions(modules, entry: set) -> list:
    """The definitions ``unreferenced_definitions`` visits that no chain
    of names reaches from ``entry`` and the modules' top-level statements:
    a definition is reached when its name is used by reached code, and
    then so is its body (a class's: bases, decorators, fields and dunder
    methods).

    Names are matched without their owner, so a definition counts as
    reached when reached code uses another object's attribute of the same
    name: a method ``add`` would be reached by a call of ``Store.add`` or
    ``set.add``."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names, defs = set(entry), []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, funcs)
                           and not (m.name.startswith("__")
                                    and m.name.endswith("__"))]
                defs.append((path, node, node.bases + node.decorator_list
                             + [b for b in node.body if b not in methods]))
                defs += [(path, m, [m]) for m in methods]
            elif isinstance(node, funcs):
                defs.append((path, node, [node]))
            else:
                names |= used_names([node])
    todo = defs
    while grown := [d for d in todo if d[1].name in names]:
        todo = [d for d in todo if d[1].name not in names]
        names |= used_names([b for _, _, body in grown for b in body])
    return [f"{path.name}:{node.lineno}: {node.name}"
            for path, node, _ in todo]


def tracer_targets() -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.Tracer().targets()


def test_every_definition_is_reached():
    # the CLI's entry point and the acceptance criteria; a definition that
    # only unit tests or perfbench's tracer name is dead weight
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8"))
    entry = {"main"} | used_names([acceptance])
    assert unreached_definitions(MODULES, entry) == []


def test_lint_catches_an_unreached_definition(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("def main():\n    return helper()\n\n"
                 "def helper():\n    return Box().used()\n\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self.x = ready()\n\n"
                 "    def used(self):\n        return 1\n\n"
                 "    def unused(self):\n        return dead()\n\n"
                 "def ready():\n    return 0\n\n"
                 "def listed():\n    return 1\n\n"
                 "def dead():\n    return only_dead()\n\n"
                 "def only_dead():\n    return TABLE\n\n"
                 "TABLE = {'k': listed}\n")
    assert unreached_definitions([p], {"main"}) == [
        "mod.py:14: unused", "mod.py:23: dead", "mod.py:26: only_dead"]


def unused_parameters(path: Path) -> list:
    """Parameters of top-level functions and methods that the body never
    reads.  ``self``, ``cls`` and ``_``-prefixed names are exempt, and so
    are nested functions and lambdas: a rule callback keeps the
    ``rule(a, b)`` signature whether or not it reads both labels."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = [node for node in tree.body if isinstance(node, defs)]
    funcs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, defs)]
    out = []
    for fn in funcs:
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        out += [f"{path.name}:{fn.lineno}: {fn.name}({p.arg})"
                for p in params if p.arg not in read
                and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert unused_parameters(path) == []


def test_lint_catches_an_unused_parameter(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("def f(a, b, _c, *args, d=1, **kw):\n"
                 "    b = 2\n"
                 "    def rule(x, y):\n"
                 "        return x\n"
                 "    return a, rule, lambda u, v: u, kw\n\n"
                 "class K:\n"
                 "    def m(self, x, y):\n"
                 "        return [x for _ in range(3)]\n")
    assert unused_parameters(p) == ["mod.py:1: f(b)", "mod.py:1: f(d)",
                                    "mod.py:1: f(args)", "mod.py:8: m(y)"]


def defaulted_parameters(path: Path) -> list:
    """(line, qualified name, callee name, parameter, position) for each
    defaulted parameter of a top-level function or method, dunders other
    than ``__init__`` skipped.  The callee of ``__init__`` is its class;
    the position counts from the first argument a call writes (after
    ``self`` or ``cls``), and is None for a keyword-only parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = [(None, node) for node in tree.body if isinstance(node, defs)]
    funcs += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, defs)
              and (node.name == "__init__" or not (
                  node.name.startswith("__") and node.name.endswith("__")))]
    out = []
    for cls, fn in funcs:
        args = fn.args
        pos = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list)
        callee = cls.name if fn.name == "__init__" else fn.name
        first = len(pos) - len(args.defaults)
        name = f"{cls.name}.{fn.name}" if cls else fn.name
        out += [(fn.lineno, name, callee, p.arg, i - bound)
                for i, p in enumerate(pos) if i >= first]
        out += [(fn.lineno, name, callee, p.arg, None)
                for p, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def call_arguments(roots) -> list:
    """(callee name, positions written, keywords written) for each call in
    a .py file under ``roots`` whose callee is a name or an attribute; a
    call ``cls(...)`` names the class it is written in.  A starred
    argument writes every position (the count is None) and a ``**``
    argument every keyword (the keywords are None)."""
    out = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # id of a cls(...) call -> its innermost class
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    owner.update((id(node), cls.name)
                                 for node in ast.walk(cls))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name == "cls":
                    name = owner.get(id(node), name)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                out.append((name, None if starred else len(node.args),
                            None if None in keywords else keywords))
    return out


def unvaried_defaults(modules, roots) -> list:
    """Defaulted parameters that no call under ``roots`` passes, or that
    every such call passes.  A default never overridden is a constant
    under a parameter's name, and one always overridden is a required
    parameter: either way the default is a setting no call varies.

    Calls are matched to a definition by callee name alone, as
    ``defaulted_parameters`` gives it.  So two definitions of one name
    share their calls: ``DGModule.from_table``'s ``side`` counts the calls
    of ``DGAlgebra.from_table``.  A starred call writes every position, so
    ``RetractNode(subject, inner, *maps)`` would hide a default left to
    its last parameters.  A call through an expression, such as
    ``type(r)(...)`` or a stored callback, counts for no definition."""
    calls = call_arguments(roots)
    out = []
    for path in modules:
        for line, fn, callee, param, pos in defaulted_parameters(path):
            passed = [kws is None or param in kws
                      or pos is not None and (n is None or n > pos)
                      for name, n, kws in calls if name == callee]
            if not any(passed):
                out.append(f"{path.name}:{line}: {fn}({param}) never passed")
            elif all(passed):
                out.append(f"{path.name}:{line}: {fn}({param}) always passed")
    return out


def test_every_default_is_varied():
    assert unvaried_defaults(MODULES, SOURCES) == []


def test_lint_catches_an_unvaried_default(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("def never_set(a, label='1m'):\n    return a, label\n\n"
                 "def always_set(a, window=None):\n    return a, window\n\n"
                 "def varied(a, b=0, *, c=1):\n    return a, b, c\n\n"
                 "class Box:\n"
                 "    def __init__(self, x, y=0):\n        self.x = x + y\n\n"
                 "    @classmethod\n"
                 "    def make(cls, x):\n        return cls(x, 1)\n\n"
                 "    @staticmethod\n"
                 "    def pick(x, y=0):\n        return x + y\n\n"
                 "    def __repr__(self, z=0):\n        return str(z)\n\n"
                 "never_set(1)\nalways_set(1, None)\nalways_set(2, window=3)\n"
                 "varied(1)\nvaried(1, c=2)\nvaried(*[1, 2])\n"
                 "Box(1)\nBox.pick(1)\nBox.pick(**{'y': 2})\n")
    assert unvaried_defaults([p], [tmp_path]) == [
        "mod.py:1: never_set(label) never passed",
        "mod.py:4: always_set(window) always passed"]


def read_attributes(roots) -> set:
    """Every attribute name a .py file under ``roots`` loads, as
    ``obj.x`` or as ``getattr(obj, "x")``."""
    names = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    names.add(node.args[1].value)
    return names


def unread_fields(modules, roots) -> list:
    """Annotated fields of each top-level class and the ``self.x`` its
    ``__init__`` assigns that nothing under ``roots`` reads.  Reads are
    matched by attribute name alone, so a name that another object also
    has makes the lint lenient, never wrong."""
    read = read_attributes(roots)
    out = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = {}
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    fields.setdefault(node.target.id, node.lineno)
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "__init__"):
                    for t in ast.walk(node):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.ctx, ast.Store)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            fields.setdefault(t.attr, t.lineno)
            out += [f"{path.name}:{line}: {cls.name}.{name}"
                    for name, line in fields.items() if name not in read]
    return out


def test_no_unread_fields():
    assert unread_fields(MODULES, SOURCES) == []


def test_lint_catches_an_unread_field(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("class Record:\n"
                 "    kept: int\n"
                 "    dropped: int\n\n"
                 "class Box:\n"
                 "    def __init__(self):\n"
                 "        self.named = 1\n"
                 "        self.stored = 2\n"
                 "        self.stored += 1\n\n"
                 "def use(r, b):\n"
                 "    return r.kept + getattr(b, 'named')\n")
    assert unread_fields([p], [tmp_path]) == ["mod.py:3: Record.dropped",
                                              "mod.py:8: Box.stored"]


def test_tracer_targets_resolve():
    # perfbench wraps engine functions by name and only lists the ones it
    # cannot find, so a rename would silently zero its per-layer metrics.
    # ``dgstruct.tD`` (no command used it), ``exactlinalg.rref``
    # (``span_echelon`` eliminates its vectors itself),
    # ``exactlinalg.solve`` (the graph echelon gives preimages) and
    # ``resolve.minimize`` (the resolution checks itself when built) are
    # gone on purpose: their counters read 0 until the tracer drops the
    # targets
    targets = tracer_targets()
    assert targets
    missing = [f"{mod}.{fn}" for mod, fn, *_ in targets
               if not callable(getattr(
                   importlib.import_module(f"dgkoszul.{mod}"), fn, None))]
    assert missing == ["dgstruct.tD", "exactlinalg.rref", "exactlinalg.solve",
                       "resolve.minimize"]
