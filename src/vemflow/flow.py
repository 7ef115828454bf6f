"""Linear Stokes solve and Newton iteration for the discrete Navier-Stokes
problem, plus the reduced-scheme solve and solution export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dofspace import DofMapQ, DofMapV, ReducedMaps, build_reduced_maps
from .forms import GlobalSystem, ProblemSpec, assemble, assemble_convection
from .meshing import PolyMesh
from .polynomials import dim_poly
from .projection import CellProjections


# Newton stops as diverged once an increment exceeds this multiple of the
# smallest one so far.  In the quadratic basin the increments only shrink; a
# converging run whose increments jump by more than this after a small early
# step (far from the basin) is also reported unconverged.
DIVERGENCE_GROWTH = 1e2


@dataclass
class NSOptions:
    tol: float = 1e-10           # relative increment tolerance
    max_iter: int = 25
    initial_guess: str = "stokes"   # or "zero"


@dataclass
class FlowSolution:
    u: np.ndarray                # full velocity DoF vector (Dirichlet included)
    p: np.ndarray                # pressure coefficients per cell
    lam: float                   # zero-mean multiplier (0.0 when absent)
    increments: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    linear_residual: float = 0.0
    converged: bool = True
    diagnostic: str = ""

    @property
    def newton_iterations(self) -> int:
        return len(self.increments)


class SolverError(RuntimeError):
    pass


def _equilibrated_solve(K: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct solve with one pass of symmetric inf-norm equilibration.

    Saddle systems mix strain-scaled velocity rows with volume-scaled
    constraint rows; rescaling keeps the factorization accurate on the
    constraint block (the diagonal is zero there, so plain Jacobi would not
    apply)."""
    absK = abs(K)
    rowmax = np.asarray(absK.max(axis=1).todense()).ravel()
    rowmax[rowmax == 0] = 1.0
    d = 1.0 / np.sqrt(rowmax)
    Dm = sp.diags(d)
    Ks = (Dm @ K @ Dm).tocsc()
    y = spla.splu(Ks).solve(d * rhs)
    return d * y


def _saddle_matrix(system: GlobalSystem, J: sp.spmatrix) -> tuple[sp.csc_matrix, np.ndarray]:
    """The saddle matrix [J_ff B_f^T; B_f 0] on the free velocity DoFs, with
    the zero-mean row e bordering the pressure block when present.

    J is the velocity block: A for Stokes, the Newton Jacobian A + C + Cg for
    Navier-Stokes.  Returns (K, free velocity index)."""
    free = np.nonzero(~system.dirichlet_mask)[0]
    J_ff = J[free][:, free]
    B_f = system.B[:, free]
    if system.e is None:
        return sp.bmat([[J_ff, B_f.T], [B_f, None]], format="csc"), free
    e = sp.csr_matrix(system.e[None, :])
    return sp.bmat([[J_ff, B_f.T, None], [B_f, None, e.T], [None, e, None]], format="csc"), free


def _split(system: GlobalSystem, free: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    nf = len(free)
    nq = system.ndof_q
    u = system.dirichlet_values.copy()
    u[free] = x[:nf]
    p = x[nf: nf + nq]
    lam = float(x[nf + nq]) if system.e is not None else 0.0
    return u, p, lam


def solve_stokes(system: GlobalSystem) -> FlowSolution:
    """Direct sparse solve of the assembled Stokes system."""
    K, free = _saddle_matrix(system, system.A)
    lift = system.dirichlet_values
    F = system.F - system.A @ lift
    rhs = np.concatenate([F[free], -(system.B @ lift), [0.0] if system.e is not None else []])
    try:
        x = _equilibrated_solve(K, rhs)
    except RuntimeError as exc:
        raise SolverError(
            "singular Stokes system: check the zero-mean pressure constraint "
            "and that not every velocity DoF is constrained"
        ) from exc
    u, p, lam = _split(system, free, x)
    nrm = np.linalg.norm(rhs)
    res = np.linalg.norm(K @ x - rhs) / (nrm if nrm > 0 else 1.0)
    if not np.isfinite(res) or res > 1e-8:
        raise SolverError(f"direct solve failed: relative residual {res:.3e}")
    return FlowSolution(u=u, p=p, lam=lam, linear_residual=float(res))


def solve_navier_stokes(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
                        projs: list[CellProjections], faceprojs: dict,
                        opts: NSOptions | None = None,
                        system: GlobalSystem | None = None) -> FlowSolution:
    """Newton iteration with the displacement stopping criterion
    ||x_n - x_{n+1}|| < tol ||x_n|| on the combined DoF vector.

    A non-finite increment, or one over DIVERGENCE_GROWTH times the smallest
    so far, stops the iteration as diverged; that step is not applied."""
    opts = opts or NSOptions()
    if opts.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mapv, mapq = maps
    if system is None:
        system = assemble(mesh, maps, spec, projs, faceprojs)

    if opts.initial_guess == "stokes":
        sol = solve_stokes(system)
        u, p, lam = sol.u, sol.p, sol.lam
    else:
        u = system.dirichlet_values.copy()
        p = np.zeros(system.ndof_q)
        lam = 0.0

    increments = []
    residuals = []
    for it in range(opts.max_iter):
        C, Cg = assemble_convection(mesh, mapv, projs, u)
        K, free = _saddle_matrix(system, system.A + C + Cg)
        Rm = system.A @ u + C @ u + system.B.T @ p - system.F
        Rc = system.B @ u
        if system.e is not None:
            rhs = -np.concatenate([Rm[free], Rc + lam * system.e, [system.e @ p]])
        else:
            rhs = -np.concatenate([Rm[free], Rc])
        residuals.append(float(np.linalg.norm(rhs)))
        try:
            dx = _equilibrated_solve(K, rhs)
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed in Newton step {it}") from exc

        inc = float(np.linalg.norm(dx))
        if not np.isfinite(inc) or (increments and inc > DIVERGENCE_GROWTH * min(increments)):
            smallest = min(increments, default=float("nan"))
            increments.append(inc)
            return FlowSolution(
                u=u, p=p, lam=lam, increments=increments, residuals=residuals,
                converged=False,
                diagnostic=(f"Newton diverged at step {it + 1}: increment {inc:.3e}, "
                            f"smallest earlier increment {smallest:.3e}; "
                            f"the iterate before that step is returned"),
            )

        nf = len(free)
        state = np.concatenate([u[free], p, [lam] if system.e is not None else []])
        u = u.copy()
        u[free] += dx[:nf]
        p = p + dx[nf: nf + system.ndof_q]
        if system.e is not None:
            lam += float(dx[nf + system.ndof_q])
        increments.append(inc)
        base = float(np.linalg.norm(state))
        if inc < opts.tol * max(base, 1e-300) or (base == 0.0 and inc == 0.0):
            return FlowSolution(u=u, p=p, lam=lam, increments=increments,
                                residuals=residuals, linear_residual=0.0)
    # non-convergence returns the last iterate with a diagnostic
    return FlowSolution(
        u=u, p=p, lam=lam, increments=increments, residuals=residuals,
        converged=False,
        diagnostic=(f"Newton did not converge in {opts.max_iter} iterations; "
                    f"last increment {increments[-1]:.3e}"),
    )


# ---------------------------------------------------------------------------
# Reduced scheme
# ---------------------------------------------------------------------------


def reduced_embedding(mesh: PolyMesh, mapv: DofMapV, projs: list[CellProjections],
                      red: ReducedMaps) -> sp.csr_matrix:
    """Sparse embedding E of the reduced velocity DoFs (families 1-4) into the
    full ones, (ndof_v, red.ndof_v).  E is the identity on the kept DoFs.  On
    the reduced space div v is the constant boundary flux over the volume,
    which fixes the divergence moments: D5_b(v) = (int m_b / vol^2) flux(v),
    flux(v) = sum over the cell's faces of sign |f| (constant normal moment)."""
    # flux[c, j]: boundary flux of cell c per unit of reduced DoF j
    fc, slot = np.nonzero(mesh.face_cells >= 0)
    normal0 = mapv.offsets["face"] + 3 * mapv.n_face_moms * fc
    area = np.array([g.area for g in mesh.face_geom])[fc]
    flux = sp.csr_matrix((mesh.face_cell_signs[fc, slot] * area,
                          (mesh.face_cells[fc, slot], red.full_to_red[normal0])),
                         shape=(mesh.n_cells, red.ndof_v))
    # the dropped DoFs are the divergence moments, cell by cell
    d5 = np.nonzero(~red.keep)[0]
    mono = np.stack([pr.mono_int[1: 1 + mapv.n_d5] / pr.vol**2 for pr in projs])
    per_cell = sp.csr_matrix((mono.ravel(), (d5, np.arange(d5.size) // mapv.n_d5)),
                             shape=(mapv.ndof, mesh.n_cells))
    return (sp.identity(mapv.ndof, format="csr")[:, red.keep] + per_cell @ flux).tocsr()


def solve_stokes_reduced(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
                         projs: list[CellProjections], faceprojs: dict,
                         red: ReducedMaps | None = None) -> tuple[FlowSolution, ReducedMaps]:
    """Stokes solve in the reduced pair (no divergence moments, constant
    pressures) as the restriction E^T [A B^T; B 0] E of the full system to
    the reduced velocities and the cells' constant pressure rows; Neumann
    faces and the zero-mean row carry over from the full system.  Returns
    the solution in reduced numbering."""
    mapv, mapq = maps
    red = red or build_reduced_maps(mesh, mapv.k, maps)
    full = assemble(mesh, maps, spec, projs, faceprojs)
    E = reduced_embedding(mesh, mapv, projs, red)
    pq = mapq.n_per_cell
    system = GlobalSystem(
        k=spec.k, nu=spec.nu, A=(E.T @ full.A @ E).tocsr(), B=(full.B[::pq] @ E).tocsr(),
        F=E.T @ full.F, e=None if full.e is None else full.e[::pq],
        dirichlet_mask=full.dirichlet_mask[red.keep],
        dirichlet_values=full.dirichlet_values[red.keep],
    )
    return solve_stokes(system), red


@dataclass
class ReducedComparison:
    max_velocity_diff: float
    max_pressure_diff: float
    dof_saving: int
    expected_saving: int

    @property
    def saving_matches(self) -> bool:
        return self.dof_saving == self.expected_saving


def reduce_and_compare(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
                       projs: list[CellProjections], faceprojs: dict) -> ReducedComparison:
    """Solve the full and the reduced Stokes problems and compare: shared
    velocity DoFs must coincide and the reduced pressure must equal the cell
    means of the full pressure."""
    mapv, mapq = maps
    system = assemble(mesh, maps, spec, projs, faceprojs)
    full = solve_stokes(system)
    redsol, red = solve_stokes_reduced(mesh, maps, spec, projs, faceprojs)
    u_shared_full = full.u[red.keep]
    du = float(np.max(np.abs(u_shared_full - redsol.u)))
    dp = 0.0
    pq = mapq.n_per_cell
    for ci, proj in enumerate(projs):
        mean_full = float(proj.mono_int[:pq] @ full.p[ci * pq: (ci + 1) * pq]) / proj.vol
        dp = max(dp, abs(mean_full - redsol.p[ci]))
    expected = (2 * dim_poly(mapv.k - 1, 3) - 2) * mesh.n_cells
    return ReducedComparison(du, dp, red.saving, expected)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_solution_json(sol: FlowSolution, path: str, meta: dict | None = None) -> None:
    payload = {
        "velocity_dofs": sol.u.tolist(),
        "pressure_coefficients": sol.p.tolist(),
        "multiplier": sol.lam,
        "newton_increments": sol.increments,
        "metadata": meta or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def sample_fields_csv(mesh: PolyMesh, maps, projs: list[CellProjections],
                      sol: FlowSolution, path: str) -> None:
    """Cell-barycenter values of the projected velocity and the pressure."""
    mapv, mapq = maps
    pk = dim_poly(mapv.k, 3)
    pq = mapq.n_per_cell
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cell,x,y,z,ux,uy,uz,p\n")
        for ci, proj in enumerate(projs):
            xb = mesh.cell_geom[ci].barycenter
            phi = proj.basis.eval(xb[None, :])[0, :pk]
            uloc = sol.u[mapv.cell_global[ci]]
            uvals = [float(phi @ (proj.pi_0k[c * pk: (c + 1) * pk] @ uloc)) for c in range(3)]
            pval = float(phi[:pq] @ sol.p[ci * pq: (ci + 1) * pq])
            fh.write(f"{ci},{xb[0]:.17e},{xb[1]:.17e},{xb[2]:.17e},"
                     f"{uvals[0]:.17e},{uvals[1]:.17e},{uvals[2]:.17e},{pval:.17e}\n")
