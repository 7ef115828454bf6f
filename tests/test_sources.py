import ast
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
