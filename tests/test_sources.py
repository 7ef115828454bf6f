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
