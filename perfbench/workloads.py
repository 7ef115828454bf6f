"""The benchmark's workloads and the op every one of them times.

One op takes raw mesh arrays (or, on the sweep, a prepared discretisation)
to a verified solution by calling each layer's public functions in turn:

    meshing.PolyMesh -> dofspace.build_dof_maps -> projection.build_projections
    -> forms.assemble -> flow.solve_stokes / flow.solve_navier_stokes
    -> bench.error_h1_velocity / bench.error_l2_pressure -> derham.check_divfree

Every layer function is looked up as a module attribute at call time, so the
traced run can wrap it (see tracing.py) without touching the package.

Inputs come only from the workload seed.  Mesh seeds are drawn from a fixed
pool so that the reference file holds a value for every input an op can get.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from vemflow import bench, cases, derham, dofspace, flow, forms, meshing, projection

MESH_POOL = tuple(range(16))
SWEEP_CASES = ("ex1-stokes", "ex3-p1", "ex3-p2")
SWEEP_NUS = (0.1, 1.0, 10.0)
NEWTON_TOL = 1e-10


@dataclass
class OpInput:
    key: str          # reference key: mesh, degree, case and viscosity
    payload: object   # raw mesh arrays, or the sweep's mesh seed


@dataclass
class OpResult:
    ndof: int         # velocity + pressure DoFs
    eH1u: float
    eL2p: float
    newton_iters: int
    max_div: float


_MAKE_CASE_CLEAR = cases.make_case.cache_clear


def clear_case_cache() -> None:
    """Forget derived cases, so that the next make_case derives them again."""
    _MAKE_CASE_CLEAR()
    sympy.core.cache.clear_cache()


def _draw(n: int, *entropy: int) -> int:
    return int(np.random.default_rng(list(entropy)).integers(n))


def _ref_key(mesh_key: str, k: int, case) -> str:
    return f"{mesh_key}/k{k}/{case.name}/nu{case.nu:g}"


def raw_arrays(mesh: meshing.PolyMesh) -> dict:
    """The mesh as plain lists, the form a mesh file or a caller hands in."""
    return mesh.to_json_dict()


def solve_and_measure(mesh, maps, projs, faceprojs, case) -> OpResult:
    """Assemble, solve and measure one manufactured problem on a discretisation."""
    mapv, mapq = maps
    spec = forms.ProblemSpec(nu=case.nu, load=case.load, dirichlet=case.velocity,
                             k=mapv.k, convective=case.convective)
    system = forms.assemble(mesh, maps, spec, projs, faceprojs)
    if case.convective:
        sol = flow.solve_navier_stokes(mesh, maps, spec, projs, faceprojs,
                                       flow.NSOptions(tol=NEWTON_TOL), system=system)
        if not sol.converged:
            raise flow.SolverError(sol.diagnostic)
        iters = sol.newton_iterations
    else:
        sol = flow.solve_stokes(system)
        iters = 0
    e1 = bench.error_h1_velocity(sol.u, case, mesh, mapv, projs)
    e2 = bench.error_l2_pressure(sol.p, case, mesh, mapq, projs)
    max_div = derham.check_divfree(sol.u, mesh, mapv, projs)
    return OpResult(mapv.ndof + mapq.ndof, e1, e2, iters, max_div)


def discretise(raw: dict, k: int):
    """Mesh, DoF maps and all projections from raw mesh arrays."""
    mesh = meshing.PolyMesh(raw["vertices"], raw["faces"], raw["cells"])
    maps = dofspace.build_dof_maps(mesh, k)
    projs, faceprojs = projection.build_projections(mesh, maps[0])
    return mesh, maps, projs, faceprojs


class FreshMeshWorkload:
    """Every op rebuilds the mesh, DoF maps and projections from raw arrays,
    as one level of a convergence study does."""

    def __init__(self, name: str, case_name: str, k: int, mesh_pool, mesh_name, mesh_factory):
        self.name = name
        self.case_name = case_name
        self.k = k
        self.mesh_pool = mesh_pool
        self._mesh_name = mesh_name          # mesh seed -> reference key part
        self._mesh_factory = mesh_factory    # mesh seed -> PolyMesh
        self.seed = 0
        self.case = None
        self._raw: dict[int, dict] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.case = cases.make_case(self.case_name, k=self.k)
        self._raw = {}
        self.make_input(0)      # input generation, timed as set-up for the first op

    def _input(self, ms: int) -> OpInput:
        if ms not in self._raw:
            self._raw[ms] = raw_arrays(self._mesh_factory(ms))
        return OpInput(_ref_key(self._mesh_name(ms), self.k, self.case), self._raw[ms])

    def make_input(self, i: int) -> OpInput:
        return self._input(self.mesh_pool[_draw(len(self.mesh_pool), self.seed, 1, i)])

    def run_op(self, inp: OpInput) -> OpResult:
        return solve_and_measure(*discretise(inp.payload, self.k), self.case)

    def reference_inputs(self):
        self.case = cases.make_case(self.case_name, k=self.k)
        for ms in self.mesh_pool:
            self._raw = {}
            yield self._input(ms)


class SweepWorkload:
    """One mesh discretised once in set-up; every op assembles, solves and
    verifies Stokes for a seeded (case, viscosity) pair."""

    name = "tets-sweep-k3"
    k = 3
    n = 2

    def __init__(self):
        self.seed = 0
        self.cases = {}
        self._disc = {}

    def _mesh_seed(self, seed: int) -> int:
        return MESH_POOL[_draw(len(MESH_POOL), seed, 0)]

    def _discretise(self, ms: int) -> None:
        if ms not in self._disc:
            self._disc[ms] = discretise(raw_arrays(meshing.generate_tetra_mesh(self.n, seed=ms)), self.k)

    def _derive_cases(self) -> None:
        self.cases = {(c, nu): cases.make_case(c, k=self.k, nu=nu)
                      for c in SWEEP_CASES for nu in SWEEP_NUS}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._derive_cases()
        self._disc = {}
        self._discretise(self._mesh_seed(seed))

    def _input(self, ms: int, pair) -> OpInput:
        return OpInput(_ref_key(f"tets{self.n}-s{ms}", self.k, self.cases[pair]), (ms, pair))

    def make_input(self, i: int) -> OpInput:
        pairs = sorted(self.cases)
        return self._input(self._mesh_seed(self.seed), pairs[_draw(len(pairs), self.seed, 1, i)])

    def run_op(self, inp: OpInput) -> OpResult:
        ms, pair = inp.payload
        return solve_and_measure(*self._disc[ms], self.cases[pair])

    def reference_inputs(self):
        self._derive_cases()
        for ms in MESH_POOL:
            self._disc = {}
            self._discretise(ms)
            for pair in sorted(self.cases):
                yield self._input(ms, pair)


def make_workload(name: str):
    if name == "cubes-stokes":
        return FreshMeshWorkload(name, "ex1-stokes", 2, (0,), lambda ms: "cubes6",
                                 lambda ms: meshing.generate_structured_cubes(6))
    if name == "tets-ns":
        return FreshMeshWorkload(name, "ex2-ns", 2, MESH_POOL, lambda ms: f"tets3-s{ms}",
                                 lambda ms: meshing.generate_tetra_mesh(3, seed=ms))
    if name == "tets-sweep-k3":
        return SweepWorkload()
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


WORKLOADS = ("cubes-stokes", "tets-ns", "tets-sweep-k3")


# -- correctness oracle ------------------------------------------------------

RTOL = 1e-6        # relative tolerance on the error norms
ATOL = 1e-9        # absolute floor where an error sits at round-off level
DIV_TOL = 1e-9     # divergence-freeness gate of acceptance criterion 6


def check(result: OpResult, ref: dict | None) -> str | None:
    """Why the op's result disagrees with its reference, or None if it agrees."""
    if ref is None:
        return "no reference value for this input"
    for name in ("eH1u", "eL2p"):
        got, want = getattr(result, name), ref[name]
        if not abs(got - want) <= max(RTOL * abs(want), ATOL):
            return f"{name} {got:.17g} differs from reference {want:.17g}"
    if result.newton_iters != ref["newton_iters"]:
        return f"{result.newton_iters} Newton iterations, reference {ref['newton_iters']}"
    if not result.max_div <= DIV_TOL:
        return f"max div(u_h) {result.max_div:.3e} exceeds {DIV_TOL:g}"
    return None
