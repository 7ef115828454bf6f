"""Self-test of the benchmark: one op per workload and mode, every metric
BENCHMARK.json names emitted with its unit, and a clean refusal outside a
checkout.  About a minute:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from tracing import per_op_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace, group):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    # a warm-up op, then one timed op, or a traced and an untraced one
    assert out["attempted"] == 2 + trace
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["projection.cell", 1.0, 5.0, 0, 0],
        ["quadrature.cell", 2.0, 3.0, 1, 0],
        ["projection.cell", 5.0, 6.0, 0, 0],
        ["flow.newton", 6.0, 9.5, 0, 0],
        ["flow.stokes", 6.5, 7.5, 4, 0],
    ]
    got = per_op_metrics(spans, {"0": {"quadrature.cell_points": 7}})["0"]
    assert got["other_s"] == pytest.approx(10.0 - 4.0 - 1.0 - 3.5)
    assert got["projection.cell_s"] == pytest.approx(3.0 + 1.0)
    assert got["quadrature.cell_s"] == pytest.approx(1.0)
    assert got["flow.newton_self_s"] == pytest.approx(2.5)
    assert got["flow.stokes_s"] == pytest.approx(1.0)
    assert got["projection.cells"] == 2
    assert got["quadrature.cell_points"] == 7
