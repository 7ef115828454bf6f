"""The CI workflow tests on the oldest Python and the oldest versions of
the dependencies that pyproject.toml admits, and every source parses with
that Python's grammar."""

import ast
import re
from pathlib import Path

import vemflow

ROOT = Path(vemflow.__file__).parents[2]


def _version(text: str) -> tuple[int, ...]:
    """A version as a tuple of ints without trailing zeros, so that 1.24 and
    1.24.0 are one version."""
    parts = [int(x) for x in text.split(".")]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _floors(pyproject: str) -> dict:
    """{package: version} of each `name>=version` of pyproject.toml's
    `dependencies` and of its `test` extra, which CI installs too, read by
    regex: tomllib is not in Python 3.10."""
    lists = re.findall(r"^(?:dependencies|test)\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
    return {name: _version(v) for deps in lists
            for name, v in re.findall(r'"([\w.-]+)\s*>=\s*([\d.]+)"', deps)}


def _drift(pyproject: str, workflow: str) -> dict:
    """{package: (floor, pin)} for each dependency floor that the workflow
    does not install as `"name==floor"`; the pin is None where there is
    none."""
    pins = {name: _version(v) for name, v in re.findall(r'"([\w.-]+)==([\d.]+)"', workflow)}
    return {name: (floor, pins.get(name)) for name, floor in _floors(pyproject).items()
            if pins.get(name) != floor}


def _python_floor(pyproject: str) -> str:
    """The `requires-python` floor of pyproject.toml, as "3.10"."""
    return re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M).group(1)


def _python_drift(pyproject: str, workflow: str) -> tuple | None:
    """(floor, pins) when the workflow's `python-version`s are not exactly
    the `requires-python` floor of pyproject.toml, quoted (YAML reads an
    unquoted 3.10 as the number 3.1), else None."""
    floor = _python_floor(pyproject)
    pins = re.findall(r"python-version:\s*(\S+)", workflow)
    return None if pins == [f'"{floor}"'] else (floor, pins)


def test_ci_pins_the_dependency_floors():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert set(_floors(pyproject)) == {"numpy", "scipy", "sympy", "pytest"}
    assert _drift(pyproject, workflow) == {}
    assert _python_drift(pyproject, workflow) is None


def test_drift_check_catches_them():
    pyproject = ('[build-system]\nrequires = ["setuptools>=68"]\n\n[project]\n'
                 'dependencies = [\n    "numpy>=1.24",\n    "scipy>=1.15",\n    "sympy>=1.12",\n]\n\n'
                 '[project.optional-dependencies]\ntest = ["pytest>=7.4.4"]\n')
    assert _floors(pyproject) == {"numpy": (1, 24), "scipy": (1, 15), "sympy": (1, 12), "pytest": (7, 4, 4)}
    assert _drift(pyproject, 'pip install "numpy==1.24.0" "scipy==1.15" "sympy==1.12.0" "pytest==7.4.4"') == {}
    assert _drift(pyproject, 'pip install "numpy==1.24.1" "scipy==1.14.0" "pytest==7.4.4"') == {
        "numpy": ((1, 24), (1, 24, 1)), "scipy": ((1, 15), (1, 14)), "sympy": ((1, 12), None)}
    assert _drift(pyproject.replace("pytest>=7.4.4", "pytest>=7"),
                  'pip install "numpy==1.24" "scipy==1.15" "sympy==1.12" "pytest==7.4.4"') == {
        "pytest": ((7,), (7, 4, 4))}
    pyproject = '[project]\nrequires-python = ">=3.10"\n'
    assert _python_drift(pyproject, '        with:\n          python-version: "3.10"\n') is None
    assert _python_drift(pyproject, "python-version: 3.10\n") == ("3.10", ["3.10"])
    assert _python_drift(pyproject, 'python-version: "3.11"\n') == ("3.10", ['"3.11"'])
    assert _python_drift(pyproject, 'python-version: "3.10"\npython-version: "3.12"\n') == (
        "3.10", ['"3.10"', '"3.12"'])
    assert _python_drift(pyproject, "steps: []\n") == ("3.10", [])



def test_ci_job_has_a_timeout():
    """A hung test would otherwise run for GitHub's default of 6 hours; a
    local tier-1 run takes about 70 s."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    jobs = workflow.split("\njobs:\n", 1)[1]
    assert re.findall(r"^  (\w+):$", jobs, re.M) == ["tier1"]
    assert re.findall(r"^    timeout-minutes: (\d+)$", jobs, re.M) == ["20"]


def _above_floor(sources: dict, floor: tuple[int, int]) -> list[str]:
    """The names of the `sources` that the grammar of Python `floor` rejects."""
    bad = []
    for name, src in sources.items():
        try:
            ast.parse(src, filename=name, feature_version=floor)
        except SyntaxError:
            bad.append(name)
    return bad


def test_sources_parse_at_the_python_floor():
    """CI runs on the `requires-python` floor, but a local run may use a
    newer Python, whose grammar admits what the floor's rejects: every file
    of src/, tests/ and perfbench/ parses with the floor's grammar."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(int(x) for x in _python_floor(pyproject).split("."))
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 30
    assert _above_floor({str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in files}, floor) == []


def test_floor_grammar_check_catches_them():
    sources = {"match": "match x:\n    case 1:\n        pass\n",
               "except-star": "try:\n    pass\nexcept* ValueError:\n    pass\n",
               "type-params": "def f[T](x: T) -> T:\n    return x\n"}
    assert _above_floor(sources, (3, 10)) == ["except-star", "type-params"]
    assert _above_floor(sources, (3, 9)) == ["match", "except-star", "type-params"]
