import ast
import sys
import warnings
from pathlib import Path

import pytest

import vemflow

SOURCES = sorted(Path(vemflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    """Invalid escape sequences in docstrings warn today and are errors in
    later Pythons."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _private_imports(tree: ast.AST) -> list[str]:
    """Modules and names of numpy and scipy with a private (underscore)
    part that the tree imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] in ("numpy", "scipy") and "._" in a.name]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] in ("numpy", "scipy"):
            parts = node.module.split(".") + [a.name for a in node.names]
            if any(p.startswith("_") for p in parts):
                found.append(".".join(parts))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_numpy_or_scipy_imports(path):
    """The package reaches numpy and scipy only through their public
    modules: a speed-up through, say, scipy.sparse._sparsetools breaks
    silently with the next scipy."""
    assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_import_check_catches_them():
    src = ("import scipy.sparse._sparsetools\nfrom scipy.sparse._sparsetools import csr_tocsc\n"
           "from numpy import _core\nimport numpy.linalg\nfrom scipy.sparse import csc_matrix\n")
    assert _private_imports(ast.parse(src)) == [
        "scipy.sparse._sparsetools", "scipy.sparse._sparsetools.csr_tocsc", "numpy._core"]


# what the package may import when it is imported: anything else adds a
# dependency, and its import time to every process that imports vemflow
IMPORTABLE = sys.stdlib_module_names | {"numpy", "scipy", "sympy", "vemflow"}


def _import_time_nodes(node: ast.AST):
    """The nodes under `node` that run when the module is imported: all but
    the bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _foreign_imports(tree: ast.AST) -> list[str]:
    """Modules outside IMPORTABLE that the tree imports at import time;
    relative imports are the package's own."""
    found = []
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] not in IMPORTABLE]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_scipy_and_sympy(path):
    assert _foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_import_check_catches_them():
    src = ("import os, numpy.linalg\nimport requests\nfrom scipy import sparse\nfrom . import forms\n"
           "from pandas.core import frame\nimport sympy\nfrom vemflow import flow\n\n\n"
           "def f():\n    import torch\n\n\nclass C:\n    import yaml\n\n\n"
           "try:\n    import numba\nexcept ImportError:\n    pass\n")
    assert _foreign_imports(ast.parse(src)) == ["requests", "pandas.core", "yaml", "numba"]


PERFBENCH = sorted((Path(vemflow.__file__).parents[2] / "perfbench").glob("*.py"))


def _reads(tree: ast.AST) -> set[str]:
    """What the tree reads by name: loaded names, attributes, and strings,
    through which perfbench resolves the layer functions it wraps."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unread_names(defining: list[str], reading: list[str], exported) -> list[str]:
    """Top-level functions and classes of the `defining` sources that no
    source in `reading` reads and `exported` does not list."""
    read = set().union(*(_reads(ast.parse(src)) for src in reading))
    return [node.name for src in defining for node in ast.parse(src).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read and node.name not in exported]


def test_no_test_only_code_in_the_package():
    """Every top-level function and class of the package has a reader in the
    package or in perfbench, or is exported: code that only tests call lives
    in tests/helpers.py."""
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert PERFBENCH
    readers = package + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert _unread_names(package, readers, vemflow.__all__) == []


def test_unread_name_check_catches_them():
    src = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\nclass Exported:\n    pass\n\n\n"
           "def by_name():\n    pass\n\n\nused()\n")
    assert _unread_names([src], [src, 'getattr(module, "by_name")\n'], ["Exported"]) == ["unused"]
    assert _unread_names([src], [src], ["Exported"]) == ["unused", "by_name"]


def _functions(tree: ast.AST):
    """(name, positional parameters, parameters with a default) of every
    function in the tree; a method's positional parameters leave out its
    first, and `__init__` goes by its class's name, which its callers call."""
    methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if id(node) in methods and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                               for d in node.decorator_list):
                positional = positional[1:]
            name = methods[id(node)] if node.name == "__init__" and id(node) in methods else node.name
            yield name, positional, defaulted


def _unpassed_defaults(defining: list[str], calling: list[str], exported) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter with a default, of a function
    of the `defining` sources that `exported` does not list, that no call in
    `calling` passes by keyword or by position.  A call is matched by the
    name it calls (`f(...)` or `x.f(...)`); `*args` passes every position and
    `**kwargs` every keyword."""
    positions, keywords = {}, {}
    for src in calling:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                positions[name] = max(positions.get(name, 0), n)
                keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return [(name, p) for src in defining for name, positional, defaulted in _functions(ast.parse(src))
            if name not in exported for p in defaulted
            if p not in keywords.get(name, ()) and None not in keywords.get(name, ())
            and not (p in positional and positional.index(p) < positions.get(name, 0))]


def test_no_parameter_only_tests_pass():
    """Every parameter with a default, of a function that the package does
    not export, is passed by some call in the package or in perfbench: a
    parameter that only tests pass, or that nobody passes, is code without a
    user (a test can reach the default, or a helper in tests/helpers.py)."""
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    callers = package + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert _unpassed_defaults(package, callers, vemflow.__all__) == []


def test_unpassed_default_check_catches_them():
    src = ("def f(a, b=1, c=2, *, d=3):\n    pass\n\n\ndef exported(x=0):\n    pass\n\n\n"
           "class C:\n    def __init__(self, a, b=1):\n        pass\n\n    def m(self, x=0, y=1):\n"
           "        pass\n\n\ndef g(u=0, v=1):\n    pass\n\n\n"
           "f(0, 1)\nC(0)\nC(0).m(y=2)\ng(*args)\nopts = dict(u=1)\n")
    assert _unpassed_defaults([src], [src], ["exported"]) == [
        ("f", "c"), ("f", "d"), ("C", "b"), ("m", "x")]
    assert _unpassed_defaults([src], [src, "f(0, 1, 2, d=4)\nC(0, b=1)\nx.m(**kw)\n"], ["exported"]) == []


def _called(node: ast.AST) -> str | None:
    """The name a call or a decorator calls: `f` of `f(...)`, `x.f(...)` and `@f`."""
    func = node.func if isinstance(node, ast.Call) else node
    return getattr(func, "id", getattr(func, "attr", None))


def _plain_defaults(tree: ast.AST):
    """(class, field) of each dataclass field in the tree with a plain
    default, not a `field(...)` one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(_called(d) == "dataclass" for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None and not (
                        isinstance(item.value, ast.Call) and _called(item.value) == "field"):
                    yield node.name, item.target.id


def _unset_fields(defining: list[str], setting: list[str]) -> list[tuple[str, str]]:
    """(class, field) for each dataclass field with a plain default, of the
    `defining` sources, that no source in `setting` passes by keyword to a
    construction of its class (a call by the class's name; `**kwargs` passes
    every keyword) or assigns as an attribute of any object."""
    keywords, assigned = {}, set()
    for src in setting:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                keywords.setdefault(_called(node), set()).update(kw.arg for kw in node.keywords)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
    return [(cls, name) for src in defining for cls, name in _plain_defaults(ast.parse(src))
            if name not in assigned and not keywords.get(cls, set()) & {name, None}]


def test_no_field_default_that_nothing_sets():
    """Every dataclass field with a plain default is set by some code in the
    package or in perfbench: a field that only tests set is code without a
    user, and one that nothing sets is a constant, or a reader-less record
    entry that every instance carries."""
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    setters = package + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert _unset_fields(package, setters) == []


def test_unset_field_check_catches_them():
    src = ("from dataclasses import dataclass, field\n\n\n"
           "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n"
           "    w: str = 'a'\n    v: float = 1.0\n\n\n"
           "@dataclass(frozen=True)\nclass B:\n    s: int = 0\n    t: int = 1\n\n\n"
           "class C:\n    u: int = 0\n\n\n"
           "a = A(1, y=2)\na.v = 3.0\nB(**kw)\n")
    assert _unset_fields([src], [src]) == [("A", "w")]
    assert _unset_fields([src], ["x.w, y.s = 1, 2\n"]) == [("A", "y"), ("A", "v"), ("B", "t")]


def _member_reads(tree: ast.AST) -> set[str]:
    """What the tree reads as a member: attribute names, and every dotted
    part of its strings, through which perfbench names the methods it wraps
    (`"_MonomialBasis.eval_grad"`).  A bare name is a local, not a member."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _unread_members(defining: list[str], reading: list[str]) -> list[str]:
    """`Class.member` for each method and property, dunders aside, of the
    classes of the `defining` sources that no source in `reading` reads."""
    read = set().union(*(_member_reads(ast.parse(src)) for src in reading))
    return [f"{node.name}.{item.name}" for src in defining for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__")) and item.name not in read]


def test_no_member_only_tests_read():
    """Every method and property of the package's classes is read by some
    code in the package or in perfbench: one that only tests read is code
    without a user, and belongs in tests/helpers.py as a function."""
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    readers = package + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert _unread_members(package, readers) == []


def test_unread_member_check_catches_them():
    src = ("class A:\n    def __init__(self):\n        self.used()\n\n    def used(self):\n        pass\n\n"
           "    def unused(self):\n        pass\n\n    @property\n    def prop(self):\n        return 0\n\n"
           "    def traced(self):\n        pass\n\n    def local(self):\n        pass\n\n\n"
           "def f():\n    local = 1\n    return local\n\n\nWRAPPED = ('module', 'A.traced')\n")
    assert _unread_members([src], [src]) == ["A.unused", "A.prop", "A.local"]
    assert _unread_members([src], [src, "a.prop, a.unused, a.local = 1, 2, 3\n"]) == []


def _unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """`Class.field` for each dataclass field of the `defining` sources that
    no source in `reading` reads as a member (`_member_reads`)."""
    read = set().union(*(_member_reads(ast.parse(src)) for src in reading))
    return [f"{node.name}.{item.target.id}" for src in defining for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.ClassDef) and any(_called(d) == "dataclass" for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign) and item.target.id not in read]


def test_no_field_that_nothing_reads():
    """Every dataclass field of the package is read by some code in the
    package or in perfbench: a field that only tests read is a record entry
    that every instance carries and that its producer fills for nobody (a
    test reads the quantity from its oracle in tests/helpers.py)."""
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert PERFBENCH
    readers = package + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert _unread_fields(package, readers) == []


def test_unread_field_check_catches_them():
    src = ("from dataclasses import dataclass, field\n\n\n"
           "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n\n\n"
           "@dataclass(frozen=True)\nclass B:\n    s: int = 0\n\n\n"
           "class C:\n    u: int = 0\n\n\n"
           "a = A(1, y=2, z=[])\nprint(a.x)\nNAMED = 'B.s'\n")
    assert _unread_fields([src], [src]) == ["A.y", "A.z"]
    assert _unread_fields([src], [src, "a.y, a.z = 1, []\n"]) == []


def _foreign_private_reads(src: str) -> list[str]:
    """`x._name` for each attribute read of the source whose object is not
    `self`, whose name starts with an underscore but is no dunder, and which
    the source does not assign as `self._name`: a read of another module's
    internals, which their owner may change without a look at the reader."""
    tree = ast.parse(src)
    own = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
           and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return [f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__") and node.attr not in own
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_attributes(path):
    assert _foreign_private_reads(path.read_text(encoding="utf-8")) == []


def test_foreign_private_read_check_catches_them():
    src = ("class A:\n    def __init__(self, m):\n        self._own, self.pub = 1, 2\n"
           "        print(self._own, self._other, m._own, m.__class__)\n\n\n"
           "def f(mesh, quad):\n    return mesh._face_loop[0], quad._rule(), mesh.cells, A.__init__\n")
    assert _foreign_private_reads(src) == ["mesh._face_loop", "quad._rule"]


def _foreign_private_imports(src: str) -> list[str]:
    """`module._name` for each name that the source imports from a module of
    its own package (`from .module import _name`) whose name starts with an
    underscore but is no dunder: another module's internals, which their
    owner may change without a look at the importer."""
    return ["." * node.level + ".".join(filter(None, (node.module, a.name)))
            for node in ast.walk(ast.parse(src)) if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert _foreign_private_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_private_import_check_catches_them():
    src = ("from .meshing import MeshError, _by_appearance\nfrom . import _private, forms\n"
           "from .polynomials import (\n    _positions,\n    dim_poly,\n)\nfrom .x import __version__\n"
           "from numpy import _core\nimport vemflow._hidden\n\n\ndef f():\n    from ..y import _z\n")
    assert _foreign_private_imports(src) == [".meshing._by_appearance", "._private", ".polynomials._positions",
                                             "..y._z"]
