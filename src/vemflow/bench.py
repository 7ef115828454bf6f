"""Error norms, convergence studies and their CSV/JSON reports.  A study
discretises each of its meshes afresh (`family_meshes` builds a family's),
so each level's DoF map keeps that level's operators and Stokes factor."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .cases import ManufacturedCase, make_case, x_plane_neumann
from .derham import check_divfree
from .dofspace import build_dof_maps
from .flow import SolverError, solve_navier_stokes, solve_stokes
from .forms import ProblemSpec, assemble
from .meshing import PolyMesh, generate_structured_cubes, generate_tetra_mesh, load_mesh, mesh_size
from .polynomials import dim_poly
from .projection import build_projections

CSV_HEADER = "level,h,ndof_u,ndof_p,eH1u,eL2p,newton_iters,wall_time_s"


def error_h1_velocity(sol_u: np.ndarray, case: ManufacturedCase, mesh: PolyMesh,
                      mapv, projs) -> float:
    """sqrt of the summed squared L2 distances between the exact gradient and
    the projected discrete gradient."""
    pq = dim_poly(mapv.k - 1, 3)
    total = 0.0
    for ci, proj in enumerate(projs):
        gh = proj.rule_vals[:, :pq] @ (proj.pi_0grad @ sol_u[mapv.cell_global[ci]]).reshape(9, pq).T
        err = case.grad_velocity(proj.rule.points).reshape(-1, 9) - gh
        total += float((proj.rule.weights @ (err * err)).sum())
    return float(np.sqrt(total))


def error_l2_pressure(sol_p: np.ndarray, case: ManufacturedCase, mesh: PolyMesh,
                      mapq, projs) -> float:
    pq = mapq.n_per_cell
    total = 0.0
    for ci, proj in enumerate(projs):
        phi = proj.rule_vals[:, :pq]
        ph = phi @ sol_p[ci * pq: (ci + 1) * pq]
        pex = case.pressure(proj.rule.points)
        total += float(proj.rule.weights @ (pex - ph) ** 2)
    return float(np.sqrt(total))


@dataclass
class LevelResult:
    level: int
    h: float
    ndof_u: int
    ndof_p: int
    eH1u: float
    eL2p: float
    newton_iters: int
    wall_time_s: float
    max_div: float


@dataclass
class ErrorReport:
    case: str
    family: str
    k: int
    nu: float
    levels: list[LevelResult] = field(default_factory=list)
    failures: list = field(default_factory=list)

    def slopes(self) -> dict:
        return fit_slopes([vars(r) for r in self.levels])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.levels:
            lines.append(
                f"{r.level},{r.h:.16e},{r.ndof_u},{r.ndof_p},"
                f"{r.eH1u:.16e},{r.eL2p:.16e},{r.newton_iters},{r.wall_time_s:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "case": self.case, "family": self.family, "k": self.k, "nu": self.nu,
            "slopes": self.slopes(),
            "levels": [vars(r) for r in self.levels],
            "failures": self.failures,
        }


def fit_slopes(levels: list[dict]) -> dict:
    """Least-squares log-log slopes of eH1u and eL2p against h over the last
    max(levels-1, 2) levels; None for an error column that is not all
    positive, and for both with fewer than two levels."""
    if len(levels) < 2:
        return {"eH1u": None, "eL2p": None}
    pts = levels[-max(len(levels) - 1, 2):]
    h = np.log([float(r["h"]) for r in pts])
    out = {}
    for key in ("eH1u", "eL2p"):
        e = np.array([float(r[key]) for r in pts])
        out[key] = float(np.polyfit(h, np.log(e), 1)[0]) if np.all(e > 0) else None
    return out


def family_meshes(family: str, levels: int | None, mesh_paths=None):
    """Mesh sequence for a family: structured n = 2, 4, 8, ... and tetra from
    the jittered Kuhn subdivision of the same grids, `levels` of them (3 when
    None); cvt/random are import-only, one level per mesh path, and a
    `levels` that is given must match the number of paths."""
    if family in ("cvt", "random"):
        if not mesh_paths:
            raise ValueError(f"family {family!r} is import-only: provide mesh paths")
        if levels is not None and levels != len(mesh_paths):
            raise ValueError(f"family {family!r} has one level per mesh path: "
                             f"{levels} levels asked for, {len(mesh_paths)} paths given")
        return [load_mesh(p) for p in mesh_paths]
    levels = 3 if levels is None else levels
    if levels < 1:
        raise ValueError(f"a generated family needs levels >= 1, got {levels}")
    if family == "structured":
        return [generate_structured_cubes(2 ** (i + 1)) for i in range(levels)]
    if family == "tetra":
        return [generate_tetra_mesh(2 ** (i + 1)) for i in range(levels)]
    raise ValueError(f"unknown mesh family {family!r}")


def case_spec(case: ManufacturedCase, k: int, stabilization: str = "drecipe",
              neumann: bool = False) -> ProblemSpec:
    """The flow problem of a manufactured case; with `neumann` the faces on
    x = 0 and x = 1 carry the case's traction."""
    return ProblemSpec(
        nu=case.nu, load=case.load, dirichlet=case.velocity, k=k,
        convective=case.convective, stabilization=stabilization,
        neumann_faces=x_plane_neumann if neumann else None,
        traction=case.traction if neumann else None,
    )


def solve_case(case: ManufacturedCase, mesh: PolyMesh, k: int,
               stabilization: str = "drecipe", neumann: bool = False):
    """Discretise one mesh, then assemble and solve one manufactured problem
    on it.

    Returns (solution, maps, projs, faceprojs, newton_iters)."""
    maps = build_dof_maps(mesh, k)
    projs, faceprojs = build_projections(mesh, maps[0])
    spec = case_spec(case, k, stabilization, neumann)
    system = assemble(mesh, maps, spec, projs, faceprojs)
    if case.convective:
        sol = solve_navier_stokes(mesh, maps, spec, projs, faceprojs, system=system)
        if not sol.converged:
            raise SolverError(sol.diagnostic)
        iters = sol.newton_iterations
    else:
        sol = solve_stokes(system)
        iters = 0
    return sol, maps, projs, faceprojs, iters


def run_convergence(case_name: str, family: str, k: int, meshes: list[PolyMesh],
                    nu: float = 1.0, stabilization: str = "drecipe",
                    neumann: bool = False, out: str | None = None) -> ErrorReport:
    """Solve a manufactured case on a refinement sequence of meshes, the
    levels of `family`, and fit rates."""
    case = make_case(case_name, k=k, nu=nu)
    report = ErrorReport(case=case_name, family=family, k=k, nu=nu)
    for lvl, mesh in enumerate(meshes):
        t0 = time.perf_counter()
        try:
            sol, maps, projs, faceprojs, iters = solve_case(
                case, mesh, k, stabilization=stabilization, neumann=neumann)
        except SolverError as exc:
            report.failures.append({"level": lvl, "error": str(exc)})
            break
        mapv, mapq = maps
        e1 = error_h1_velocity(sol.u, case, mesh, mapv, projs)
        e2 = error_l2_pressure(sol.p, case, mesh, mapq, projs)
        dv = check_divfree(sol.u, mesh, mapv, projs)
        report.levels.append(LevelResult(
            level=lvl, h=mesh_size(mesh), ndof_u=mapv.ndof, ndof_p=mapq.ndof,
            eH1u=e1, eL2p=e2, newton_iters=iters,
            wall_time_s=time.perf_counter() - t0,
            max_div=dv,
        ))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=1)
    return report


def rates_from_csv(path: str) -> dict:
    """Fit slopes from a results CSV written by run_convergence."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2:
        raise ValueError("need at least two levels to fit a slope")
    return fit_slopes(rows)
