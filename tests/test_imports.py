"""Every name a pvpipeline module or a test file imports is referenced in
that file, every module-level name a pvpipeline module defines is
referenced somewhere, and every field of a pvpipeline dataclass and every
attribute a pvpipeline class sets on `self` is read.

Stdlib-`ast` stand-ins for a linter's unused-import and unused-name rules.
Names are matched per module, not per scope: an import counts as used when
the module refers to the bound name anywhere. `from __future__` imports and
the package `__init__.py` (whose imports are re-exports) are skipped. A
module-level function, class or constant counts as used when a name or
attribute of that spelling appears in `src/`, `tests/` or `demos/` outside
its own definition; apart from a named set kept for the tests, it must also
appear in the program itself: `src/`, `demos/` or `perfbench/`. A field
of a `@dataclass` class counts as read when an attribute of that spelling
is loaded anywhere in `src/`, `tests/`, `demos/` or `perfbench/`. Without
type inference that scan cannot tell which class an attribute is loaded
from, so it cannot check a field whose name two or more package
dataclasses share (`id`, `class_id`, `centroid`, `east`, ...): a read of
any of them counts for all. Every `self.<name> = ...` in a package class's
methods must be loaded the same way, with the same blind spot, which any
object's attribute of that name opens: a `self.dim` would go unreported
while `cli` reads `args.dim`. No pvpipeline module imports another
module's `_`-prefixed name, and none but `cli` imports inside a function.
`pvpipeline.workers` holds the package's one `os.fork` call.
Importing every pvpipeline module loads no scipy, and numpy is the one
runtime dependency.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pvpipeline"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))
PROGRAM_SOURCES = sorted(p for d in ("src", "demos", "perfbench")
                         for p in (ROOT / d).rglob("*.py"))
ALL_SOURCES = sorted(set(SOURCES) | set(PROGRAM_SOURCES))
UNUSED_NAME_EXEMPT = {"__version__"}
# Module-level names only the tests call, each kept on purpose.
TEST_ONLY_NAMES = {
    "clahe_rgb": "the paper's contrast-normalized RGB step; routing the toy "
                 "RGB through it waits for a benchmark change that "
                 "re-records fusion_train",
}


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def defined_names(statement) -> list:
    """Names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return [statement.name]
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def referenced_names(source: str) -> set:
    """Names and attribute names the source refers to, each top-level
    statement's references to the names it defines left out."""
    names = set()
    for statement in ast.parse(source).body:
        own = set(defined_names(statement))
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                names.add(name)
    return names


def unused_module_names(modules: dict, sources: list) -> list:
    """(module, name) of every module-level definition in `modules` (name
    -> source) that none of `sources` refers to."""
    used = set().union(*(referenced_names(s) for s in sources))
    return sorted((module, name) for module, source in modules.items()
                  for statement in ast.parse(source).body
                  for name in defined_names(statement)
                  if name not in used and name not in UNUSED_NAME_EXEMPT)


def test_scanner_finds_unused_module_names():
    module = ("import math\n"
              "LIMIT = 3\n"
              "UNUSED = (1, 2)\n"
              "def fact(n):\n"
              "    return 1 if n < 2 else n * fact(n - 1)\n"
              "def used():\n"
              "    return LIMIT + math.pi\n"
              "class Shape:\n"
              "    def area(self):\n"
              "        return Shape()\n")
    caller = "from m import used\nused()\n"
    assert unused_module_names({"m": module}, [module, caller]) == [
        ("m", "Shape"), ("m", "UNUSED"), ("m", "fact")]


def test_package_has_no_unused_module_names():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unused_module_names(modules, sources) == []


def test_package_names_are_used_by_the_program():
    sources = [p.read_text(encoding="utf-8") for p in PROGRAM_SOURCES]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert [(module, name) for module, name
            in unused_module_names(modules, sources)
            if name not in TEST_ONLY_NAMES] == []


def test_test_only_names_are_defined_and_unused_by_the_program():
    # An exemption outlives its reason once the program calls the name or
    # the package no longer defines it.
    modules = [p.read_text(encoding="utf-8") for p in MODULES]
    defined = {name for source in modules
               for statement in ast.parse(source).body
               for name in defined_names(statement)}
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in PROGRAM_SOURCES))
    assert sorted(TEST_ONLY_NAMES.keys() - defined) == []
    assert sorted(TEST_ONLY_NAMES.keys() & used) == []


def dataclass_fields(source: str) -> list:
    """(class, field) of every annotated field of a @dataclass class."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"
    return [(node.name, s.target.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(map(is_dataclass, node.decorator_list))
            for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def loaded_attributes(sources: list) -> set:
    """Names of every attribute any of `sources` loads."""
    return {node.attr for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(modules: dict, sources: list) -> list:
    """(module, class, field) of every dataclass field in `modules` (name ->
    source) that none of `sources` loads as an attribute. Loads are keyed on
    the attribute's name alone, not its class, so a field whose name another
    dataclass shares is never reported while either one is read."""
    read = loaded_attributes(sources)
    return sorted((module, cls, name) for module, source in modules.items()
                  for cls, name in dataclass_fields(source)
                  if name not in read)


def test_scanner_finds_unread_fields():
    module = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Pose:\n"
              "    east: float\n"
              "    north: float = 0.0\n"
              "    up: float = 0.0\n"
              "    def shift(self):\n"
              "        return Pose(self.east + 1.0)\n"
              "@dataclass\n"
              "class Trace:\n"
              "    rounds: int = 0\n"
              "class Plain:\n"
              "    tag: str = ''\n")
    caller = "p = Pose(1.0)\np.up = 2.0\nprint(p.north)\n"
    assert unread_fields({"m": module}, [module, caller]) == [
        ("m", "Pose", "up"), ("m", "Trace", "rounds")]


def test_package_dataclass_fields_are_read():
    sources = [p.read_text(encoding="utf-8") for p in ALL_SOURCES]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_fields(modules, sources) == []


def instance_attributes(source: str) -> set:
    """(class, name) of every `self.<name>` a class's code assigns."""
    return {(node.name, target.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for target in ast.walk(node)
            if isinstance(target, ast.Attribute)
            and isinstance(target.ctx, ast.Store)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"}


def unread_instance_attributes(modules: dict, sources: list) -> list:
    """(module, class, name) of every `self.<name> = ...` in `modules`
    (name -> source) that none of `sources` loads as an attribute, keyed
    on the name alone as in :func:`unread_fields`."""
    read = loaded_attributes(sources)
    return sorted((module, cls, name) for module, source in modules.items()
                  for cls, name in instance_attributes(source)
                  if name not in read)


def test_scanner_finds_unread_instance_attributes():
    module = ("class Model:\n"
              "    def __init__(self, size, depth):\n"
              "        self.size = size\n"
              "        self.depth = depth\n"
              "        self.width, self._cache = size * 2, {}\n"
              "        self.shape: tuple = (size, depth)\n"
              "    def area(self):\n"
              "        return self.size * self.width\n"
              "    def reset(self):\n"
              "        self._cache.clear()\n"
              "        other.depth = 0\n")
    caller = "m = Model(1, 2)\nm.unread = 3\n"
    assert unread_instance_attributes({"m": module}, [module, caller]) == [
        ("m", "Model", "depth"), ("m", "Model", "shape")]


def test_package_instance_attributes_are_read():
    sources = [p.read_text(encoding="utf-8") for p in ALL_SOURCES]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_instance_attributes(modules, sources) == []


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n"
              "    from .geodesy import GeoPoint\n"
              "    return np.zeros(1), os.sep\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n")
    assert unused_imports(source) == [(4, "field"), (6, "GeoPoint")]


def private_imports(source: str) -> list:
    """(line, name) of every `_`-prefixed name a `from` import takes."""
    return sorted((node.lineno, a.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for a in node.names if a.name.startswith("_"))


def test_scanner_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .telemetry import to_json, _record_json\n"
              "def f():\n"
              "    from .dedup import __name__, _grid\n")
    assert private_imports(source) == [
        (2, "_record_json"), (4, "__name__"), (4, "_grid")]


def test_package_imports_no_private_names():
    assert [(p.name, *hit) for p in MODULES
            for hit in private_imports(p.read_text(encoding="utf-8"))] == []


def fork_sites(source: str) -> list:
    """Lines of every reference to a name or attribute ``fork`` or
    ``forkpty``, an import of one included."""
    names = {"fork", "forkpty"}
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.ImportFrom)
        and any(a.name in names for a in node.names))


def test_scanner_finds_fork_sites():
    source = ("import os\n"
              "from os import fork as split\n"
              "pid = os.fork()\n"
              "os.forkpty()\n"
              "forked = os.fork_count\n")
    assert fork_sites(source) == [2, 3, 4]


def test_workers_holds_the_one_fork_call():
    # One fork path: the fly's frame ranges and dedup's class ranges both
    # run through workers.forked_map.
    assert [p.name for p in MODULES
            for _ in fork_sites(p.read_text(encoding="utf-8"))] == [
        "workers.py"]


def function_imports(source: str) -> list:
    """(line, name) of every name imported inside a function body."""
    nodes = {node for func in ast.walk(ast.parse(source))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted((node.lineno, a.asname or a.name)
                  for node in nodes for a in node.names)


def test_scanner_finds_function_imports():
    source = ("import json\n"
              "from .geodesy import GeoPoint\n"
              "def f():\n"
              "    import os\n"
              "    def g():\n"
              "        from .dedup import deduplicate\n"
              "    return os, g\n"
              "class A:\n"
              "    def m(self):\n"
              "        from . import fusion\n")
    assert function_imports(source) == [(4, "os"), (6, "deduplicate"),
                                        (10, "fusion")]


def test_package_imports_at_module_level():
    # cli imports inside each command, so that a command loads only the
    # modules it runs.
    assert [(p.name, *hit) for p in MODULES if p.name != "cli.py"
            for hit in function_imports(p.read_text(encoding="utf-8"))] == []


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES + TESTS])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_imports_load_no_scipy():
    # A fresh interpreter imports every module that simulate, dedup and
    # fuse-check reach. scipy's import cost about 0.4 s of every process's
    # set-up while the detector used it.
    names = ", ".join(f"pvpipeline.{p.stem}" for p in MODULES)
    code = (f"import sys, {names}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]] == ["numpy"]
