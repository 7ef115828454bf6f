"""The benchmark in perfbench/ reaches the package through module
attributes: its traced run wraps the targets that perfbench/tracing.py
names, and its op calls each layer with fixed arguments.  A rename or a
signature change fails here instead of silently turning a per-layer metric
to zero or breaking the benchmark.  perfbench/ is only read."""

import importlib.util
import inspect
import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from vemflow import bench, cases, derham, dofspace, flow, forms, meshing, projection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module,path,name", tracing.SPANS + tracing.COUNTED_CALLS)
def test_traced_target_resolves(module, path, name):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr))


# each layer call of workloads.discretise and workloads.solve_and_measure,
# with placeholders for the arguments perfbench passes
_ANY = object()
LAYER_CALLS = [
    (meshing.PolyMesh, (_ANY, _ANY, _ANY), {}),
    (dofspace.build_dof_maps, (_ANY, 2), {}),
    (projection.build_projections, (_ANY, _ANY), {}),
    (forms.ProblemSpec, (), dict(nu=1.0, load=_ANY, dirichlet=_ANY, k=2, convective=False)),
    (forms.assemble, (_ANY,) * 5, {}),
    (flow.NSOptions, (), dict(tol=1e-10)),
    (flow.solve_navier_stokes, (_ANY,) * 6, dict(system=_ANY)),
    (flow.solve_stokes, (_ANY,), {}),
    (bench.error_h1_velocity, (_ANY,) * 5, {}),
    (bench.error_l2_pressure, (_ANY,) * 5, {}),
    (derham.check_divfree, (_ANY,) * 4, {}),
    (cases.make_case, ("ex1-stokes",), dict(k=2)),
    (cases.make_case, ("ex1-stokes",), dict(k=3, nu=0.1)),
]


@pytest.mark.parametrize("fn,args,kwargs", LAYER_CALLS,
                         ids=[f"{fn.__module__}.{fn.__qualname__}" for fn, _, _ in LAYER_CALLS])
def test_layer_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_traced_op_times_every_layer():
    """One traced Navier-Stokes op on a small mesh gives every per-layer time
    of the op a non-zero value: the layers reach each other through the
    module attributes the traced run wraps (flow calls assemble_convection
    and solve_stokes as its own globals)."""
    case = cases.make_case("ex2-ns")
    raw = workloads.raw_arrays(meshing.generate_tetra_mesh(1, seed=0))
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        root = tracer.begin("op")
        result = workloads.solve_and_measure(*workloads.discretise(raw, 2), case)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert result.newton_iters > 0 and np.isfinite(result.eH1u)
    metrics = tracing.per_op_metrics(tracer.spans, tracer.counts)["0"]
    timed = set(tracing.SELF_TIME.values()) - {"cases.build_s"}
    assert {m for m in timed if not metrics.get(m, 0.0) > 0.0} == set()
    assert metrics["polynomials.eval_calls"] > 0 and metrics["quadrature.cell_points"] > 0


@pytest.mark.parametrize("name,count", [("cubes-stokes", 1), ("tets-ns", 1), ("tets-sweep-k3", 9)])
def test_reference_inputs_verify(name, count):
    """The first reference inputs of each workload (the one cubes-stokes
    input, the first tets-ns mesh, the nine sweep pairs of the first sweep
    mesh) pass the benchmark's oracle: a change that moves the answers past
    its tolerance fails here, not only in the benchmark."""
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    wl = workloads.make_workload(name)
    for inp in islice(wl.reference_inputs(), count):
        reason = workloads.check(wl.run_op(inp), reference.get(inp.key))
        assert reason is None, f"{inp.key}: {reason}"


def test_every_reference_input_verifies():
    """Every reference input of the three workloads (1 cubes-stokes mesh, 16
    tets-ns meshes, 16 sweep meshes of 9 pairs: 161) passes the benchmark's
    oracle, the Newton count included: the benchmark's verified_frac is 1
    before it runs."""
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    checked, failed = 0, []
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name)
        for inp in wl.reference_inputs():
            reason = workloads.check(wl.run_op(inp), reference.get(inp.key))
            checked += 1
            if reason is not None:
                failed.append(f"{inp.key}: {reason}")
    assert failed == [] and checked == len(reference) == 161
