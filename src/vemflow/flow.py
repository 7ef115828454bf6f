"""Linear Stokes solve and Newton iteration for the discrete Navier-Stokes
problem, and solution export.

Every linear solve runs on the reduced pair (Beirao da Veiga, Lovadina &
Vacca, ESAIM:M2AN 2017): the restriction E^T [J B^T; B 0] E of the full
saddle system to the velocities without divergence moments and to one
constant pressure per cell.  The solution of the full system lies in the
range of E, so the velocity is E u_r; the full pressure comes back cell by
cell from the divergence-moment rows of the momentum equation and the
reduced cell mean.  The reduced matrix is equilibrated and factored by
sparse LU in float32, in a geometric nested-dissection order of its
unknowns computed once per assembled system.  Every reduced solve is
right-preconditioned flexible GMRES in float64 (`_fgmres`: one cycle of at
most KRYLOV_CAP iterations to a relative residual of KRYLOV_RTOL) with a
float32 factor's solve as its preconditioner, which recovers float64
accuracy in a few iterations; GMRES proper stalls there, since a float32
solve is not linear at float64 rounding.  When FGMRES preconditioned by a
float32 factor of the matrix itself misses, the matrix is factored in
float64 (dsgesv's rule).  The velocity block stays CSC, as assembled, and
the equilibration and the permutation work on the saddle matrix's CSC arrays.

The Stokes solve works in the unknowns (u, p/nu, lam).  With the viscous
block A = nu A1 assembled as A1 (`forms.assemble`), its reduced matrix
K1 = E_f^T [A1 B^T; B 0] E_f does not depend on nu or on the load case:
    K1 (u, p/nu, lam) = (E_f^T (F/nu - A1 u0), -B u0, 0)
with u0 the lifted Dirichlet data (the continuity rows are not divided by nu,
so lam is the multiplier itself); p is scaled back by nu, and the
pressure recovery reads A1 and F/nu likewise.  At nu = 1 the factored
matrix and the solution are those of the solve in (u, p), bit for bit.  K1
is made of the operators that the DoF map keeps (A1, E, B, the Dirichlet
mask, the zero-mean row, the order), so its equilibrated factor is kept with
them: the first solve on them builds it into the system's `stokes_factor`
slot, which every system of those operators shares, and it goes when the
map evicts them or dies.  Nothing that depends on nu or the case (F, the
boundary values, u, p) is kept.

Navier-Stokes factors at most once per solve: Newton starts from the
Stokes solution, and the factor of K1 that the Stokes solve reads from that
slot serves the whole solve.  Each Newton step builds its reduced Jacobian
saddle matrix E_f^T [nu A1 + C + Cg  B^T; B 0] E_f and solves it by FGMRES
preconditioned with K1's factor: K_nu = E_f^T [nu A1 B^T; B 0] E_f solves
as K1 in (u, p/nu, lam), and in the diffusion-dominated regime it is close
to the Jacobian (Elman, Silvester & Wathen, Finite Elements and Fast Iterative
Solvers, ch. 8).  A step that misses KRYLOV_RTOL within KRYLOV_CAP
iterations factors its Jacobian instead, in float32 as K1, and so does
every later step of that solve.  A solve that has not converged after
NEWTON_MAX_ITER steps returns its last iterate, marked unconverged."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .dofspace import DofMapQ, DofMapV
from .forms import GlobalSystem, ProblemSpec, assemble, assemble_convection
from .meshing import PolyMesh
from .polynomials import dim_poly
from .projection import CellProjections


# Newton stops as diverged once an increment exceeds this multiple of the
# smallest one so far.  In the quadratic basin the increments only shrink; a
# converging run whose increments jump by more than this after a small early
# step (far from the basin) is also reported unconverged.
DIVERGENCE_GROWTH = 1e2

# Every FGMRES solve runs one cycle of at most KRYLOV_CAP iterations and
# must bring the residual of its reduced system under KRYLOV_RTOL times its
# right-hand side; otherwise a Newton step preconditioned by K1's factor
# factors its Jacobian, and a solve by a float32 factor of the matrix itself
# factors it in float64.
KRYLOV_CAP = 20
KRYLOV_RTOL = 1e-13

# Newton steps after which a solve that has not met its tolerance stops
NEWTON_MAX_ITER = 25

# the largest relative residual of a reduced linear solve, Stokes or Newton
LINEAR_RTOL = 1e-8


@dataclass
class NSOptions:
    tol: float = 1e-10           # relative increment tolerance


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
    saddle_rows: int = 0         # rows of the last saddle matrix solved
    lu_fill: int = 0             # entries SuperLU stores for its LU factor, either precision (`SuperLU.nnz`)
    factored: bool = True        # False when no factorisation ran (the map's kept factor served)
    # (path, FGMRES iterations) of the Stokes solve, or of each Newton step
    linear_solves: list = field(default_factory=list)

    @property
    def newton_iterations(self) -> int:
        return len(self.increments)


class SolverError(RuntimeError):
    pass


class _EquilibratedLU:
    """A solver of a saddle matrix K: its LU factor, in float32, after one
    pass of symmetric inf-norm equilibration and in the given symmetric
    order, preconditioning flexible GMRES on K in float64.

    Saddle systems mix strain-scaled velocity rows with volume-scaled
    constraint rows; rescaling keeps the factorization accurate on the
    constraint block (the diagonal is zero there, so plain Jacobi would not
    apply).  The scaling and the permutation work on K's CSC arrays.
    SuperLU keeps a diagonal pivot unless it is under 1% of its column's
    largest entry (scipy's default threshold is 1, partial pivoting): the
    order is symmetric, so taking the diagonal keeps the fill near that
    order's.  A threshold of 0, static pivoting, gives a wrong factor of
    the saddle matrix on 6^3 cubes.

    `precondition` is the factor's own solve, accurate to float32; `solve`
    is K^-1 to KRYLOV_RTOL by `_fgmres` preconditioned with it
    (mixed-precision refinement: Carson & Higham, SIAM J. Sci. Comput.
    40(2), 2018).  When that misses with the float32 factor, K is factored
    again in float64 (LAPACK dsgesv's rule), for this and every later
    solve.  `iterations` is the FGMRES iterations of the last `solve`.

    `fill` is the count of entries SuperLU stores for L and U; with the
    same pivots it is the same in float32 and float64.  Reading the
    factor's `L` or `U` would have scipy copy both into CSC matrices that
    live as long as the factor, so nothing reads them."""

    def __init__(self, K: sp.csc_matrix, order: np.ndarray):
        rowmax = np.zeros(K.shape[0])
        np.maximum.at(rowmax, K.indices, np.abs(K.data))
        self.d = 1.0 / np.sqrt(np.where(rowmax == 0, 1.0, rowmax))
        self.K, self.order, self.iterations = K, order, 0
        self._factor(np.float32)

    def _factor(self, dtype) -> None:
        # d_i K_ij d_j on the columns taken in `order`, their rows renumbered
        K, order, d = self.K, self.order, self.d
        Kc = K[:, order]
        Ks = sp.csc_matrix(((d[Kc.indices] * Kc.data * np.repeat(d[order], np.diff(Kc.indptr))).astype(dtype),
                            np.argsort(order)[Kc.indices], Kc.indptr), shape=K.shape)
        Ks.sort_indices()
        self.dtype = np.dtype(dtype)
        self.lu = spla.splu(Ks, permc_spec="NATURAL", diag_pivot_thresh=0.01)
        self.fill = self.lu.nnz

    def precondition(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve((self.d * rhs)[self.order].astype(self.dtype, copy=False))
        return self.d * x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, self.iterations, converged = _fgmres(self.K, self.precondition, rhs)
        if not converged and self.dtype == np.float32:
            self._factor(np.float64)
            x, more, _ = _fgmres(self.K, self.precondition, rhs)
            self.iterations += more
        return x


def _fgmres(K: sp.spmatrix, M, b: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Right-preconditioned flexible GMRES (Saad, SIAM J. Sci. Comput. 14(2),
    1993) for K x = b from x = 0: one cycle of at most KRYLOV_CAP
    iterations, stopping once the residual is at most KRYLOV_RTOL ||b||.
    Returns (x, the iterations, whether it stopped by the tolerance).

    FGMRES keeps every preconditioned vector z_j = M(v_j) and builds x from
    them, so M need not be linear: a float32 factor's solve is not linear
    at float64 rounding, which stalls plain GMRES.  The Arnoldi basis is
    orthogonalised in float64 by classical Gram-Schmidt, twice, and the
    least-squares problem is updated by Givens rotations, whose last sine
    product is the residual of x."""
    n, cap = len(b), KRYLOV_CAP
    beta = float(np.linalg.norm(b))
    if not beta > 0.0:      # b = 0, or not finite: 0 * b, which no iteration improves
        return 0.0 * b, 0, True
    V, Z = np.empty((cap + 1, n)), np.empty((cap, n))
    R, cs, sn = np.zeros((cap + 1, cap)), np.zeros(cap), np.zeros(cap)
    g = np.zeros(cap + 1)
    V[0], g[0] = b / beta, beta
    for j in range(cap):
        Z[j] = M(V[j])
        w = K @ Z[j]
        h = np.zeros(j + 2)
        for _ in range(2):
            c = V[: j + 1] @ w
            w -= c @ V[: j + 1]
            h[: j + 1] += c
        h[j + 1] = np.linalg.norm(w)
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
        r = np.hypot(h[j], h[j + 1])
        cs[j], sn[j] = h[j] / r, h[j + 1] / r
        R[: j + 1, j] = h[: j + 1]
        R[j, j] = r
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        done = abs(g[j + 1]) <= KRYLOV_RTOL * beta or h[j + 1] == 0.0
        if done or j + 1 == cap:
            y = solve_triangular(R[: j + 1, : j + 1], g[: j + 1], check_finite=False)
            return y @ Z[: j + 1], j + 1, bool(done)
        V[j + 1] = w / h[j + 1]


def _saddle_matrix(system: GlobalSystem, J: sp.spmatrix) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The reduced saddle matrix E_f^T [J B^T; B 0] E_f: the velocity block
    J restricted to the free reduced velocities (E_f = E[:, free]), tested
    against the cells' constant pressure rows B[::pq], bordered by the
    zero-mean row e[::pq] when present.

    J is the velocity block, CSC: A1 for Stokes, the Newton Jacobian
    nu A1 + C + Cg for Navier-Stokes.  Returns (K, E_f)."""
    pq = system.pressure_ints.shape[1]
    Ef = system.E[:, np.nonzero(~system.dirichlet_mask[system.keep])[0]]
    J_r = Ef.T @ J @ Ef
    B_r = system.B[::pq] @ Ef
    if system.e is None:
        return sp.bmat([[J_r, B_r.T], [B_r, None]], format="csc"), Ef
    e = sp.csr_matrix(system.e[None, ::pq])
    return sp.bmat([[J_r, B_r.T, None], [B_r, None, e.T], [None, e, None]], format="csc"), Ef


class _NewtonSolve:
    """The `_EquilibratedLU` interface (`K`, `solve`, `fill`) for a reduced
    Jacobian saddle matrix K with nf free velocities and nc cell pressures.

    With the factor `stokes` of K1 = E_f^T [A1 B^T; B 0] E_f, `solve` runs
    `_fgmres` preconditioned by K_nu^-1, which is K1's factor in the
    unknowns (u, p/nu, lam): the momentum and zero-mean rows are divided by
    nu and the pressures scaled back by nu.  Without it, or when FGMRES
    misses, K is factored in `order` and solved as `_EquilibratedLU` does.
    `path` tells which ran ("gmres", "fallback" or "direct"; "float64" when
    K's float32 factor missed and K was factored in float64), `iterations`
    how many FGMRES iterations in all, and `fill` the fill of the factor
    that served."""

    def __init__(self, K: sp.csc_matrix, order: np.ndarray, stokes: _EquilibratedLU | None,
                 nu: float, nf: int, nc: int):
        self.K, self.order, self.stokes = K, order, stokes
        self.path, self.iterations, self.fill = "direct", 0, 0
        if stokes is not None:
            rows = np.full(K.shape[0], 1.0 / nu)
            rows[nf: nf + nc] = 1.0
            cols = np.ones(K.shape[0])
            cols[nf: nf + nc] = nu
            self.M = lambda r: cols * stokes.precondition(rows * r)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.stokes is not None:
            x, self.iterations, converged = _fgmres(self.K, self.M, rhs)
            if converged:
                self.path, self.fill = "gmres", self.stokes.fill
                return x
            self.path = "fallback"
        lu = _EquilibratedLU(self.K, self.order)
        x = lu.solve(rhs)
        self.iterations += lu.iterations
        self.fill = lu.fill
        if lu.dtype == np.float64:
            self.path = "float64"
        return x


def _solve_step(system: GlobalSystem, Ef: sp.csr_matrix, lu: _EquilibratedLU, J: sp.spmatrix,
                Rm: np.ndarray, u: np.ndarray, p: np.ndarray,
                lam: float) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """The increment (du, dp, dlam) of [J B^T; B 0] (du, dp) = -(Rm, B u + lam e)
    with e . (p + dp) = 0, solved on the reduced pair with the solver `lu`
    of its saddle matrix (`_stokes_factor` or `_NewtonSolve`); returned with
    the norm of the reduced right-hand side and the relative residual.

    u is in the range of E, and so is du.  The pressure comes back cell by
    cell from the divergence-moment rows of the momentum equation, where B^T
    is |P| times the identity on the non-constant moments:
        dp_b = (-Rm - J du)[d5_b] / |P|                      (b >= 1)
        dp_0 = mean - sum_{b>=1} int m_b dp_b / |P|
    with `mean` the reduced (cell-mean) pressure increment."""
    nf, nc = Ef.shape[1], len(system.volumes)
    pq = system.pressure_ints.shape[1]
    Rc = system.B[::pq] @ u
    if system.e is not None:
        rhs = -np.concatenate([Ef.T @ Rm, Rc + lam * system.e[::pq], [system.e @ p]])
    else:
        rhs = -np.concatenate([Ef.T @ Rm, Rc])
    x = lu.solve(rhs)
    du = Ef @ x[:nf]
    dp = np.empty((nc, pq))
    dp[:, 1:] = -(Rm + J @ du)[~system.keep].reshape(nc, pq - 1) / system.volumes[:, None]
    dp[:, 0] = (x[nf: nf + nc]
                - np.sum(system.pressure_ints[:, 1:] * dp[:, 1:], axis=1) / system.volumes)
    nrm = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(lu.K @ x - rhs)) / (nrm if nrm > 0 else 1.0)
    return du, dp.ravel(), float(x[nf + nc]) if system.e is not None else 0.0, nrm, res


def _stokes_factor(system: GlobalSystem) -> tuple[tuple[sp.csr_matrix, _EquilibratedLU], bool]:
    """(E_f, the equilibrated LU factor of K1 = E_f^T [A1 B^T; B 0] E_f) from
    the system's shared slot, built there by the first call, and whether
    this call factored."""
    if system.stokes_factor:
        return system.stokes_factor[0], False
    K, Ef = _saddle_matrix(system, system.A1)
    system.stokes_factor.append((Ef, _EquilibratedLU(K, system.order)))
    return system.stokes_factor[0], True


def solve_stokes(system: GlobalSystem) -> FlowSolution:
    """Solve of the assembled Stokes system on the reduced pair, in the
    unknowns (u, p/nu, lam) of the nu-free matrix, by FGMRES preconditioned
    with its factor, kept with the DoF map's operators when an earlier
    solve built it.  `linear_solves` holds the one solve's path, "direct"
    for the float32 factor or "float64" once K1 had to be factored in
    float64, and its FGMRES iterations."""
    nu = system.nu
    u0 = system.E @ system.dirichlet_values[system.keep]
    try:
        (Ef, lu), factored = _stokes_factor(system)
        du, dp, lam, _, res = _solve_step(system, Ef, lu, system.A1, system.A1 @ u0 - system.F / nu, u0,
                                          np.zeros(system.ndof_q), 0.0)
    except RuntimeError as exc:
        raise SolverError(
            "singular Stokes system: check the zero-mean pressure constraint "
            "and that not every velocity DoF is constrained"
        ) from exc
    if not res <= LINEAR_RTOL:
        raise SolverError(f"direct solve failed: relative residual {res:.3e}")
    u, p = u0 + du, nu * dp
    # the residual is that of the reduced system, which need not see every
    # entry of the load (on one cell every reduced velocity is Dirichlet)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
        raise SolverError("direct solve failed: non-finite velocity or pressure")
    return FlowSolution(u=u, p=p, lam=lam, linear_residual=res, saddle_rows=lu.K.shape[0],
                        lu_fill=lu.fill, factored=factored,
                        linear_solves=[("direct" if lu.dtype == np.float32 else "float64", lu.iterations)])


def _newton_step(system: GlobalSystem, mapv: DofMapV, projs: list[CellProjections],
                 stokes: _EquilibratedLU | None, u: np.ndarray, p: np.ndarray,
                 lam: float) -> tuple[np.ndarray, np.ndarray, float, float, _NewtonSolve]:
    """The Newton increment (du, dp, dlam) at (u, p, lam) for the Jacobian
    nu A1 + C(u) + Cg(u), the norm of its reduced right-hand side, and the
    `_NewtonSolve` that solved it: by FGMRES preconditioned with the factor
    `stokes` of K1, or by a factor built here and dropped on return.  A1, C
    and Cg lie on the DoF map's one pattern, so the Jacobian is the sum of
    their data.  A relative residual of the reduced solve over LINEAR_RTOL
    raises `SolverError`."""
    C, Cg = assemble_convection(mapv, projs, u)
    A1, nu = system.A1, system.nu
    Rm = nu * (A1 @ u) + C @ u + system.B.T @ p - system.F
    J = sp.csc_matrix((nu * A1.data + C.data + Cg.data, A1.indices, A1.indptr), shape=A1.shape)
    K, Ef = _saddle_matrix(system, J)
    lin = _NewtonSolve(K, system.order, stokes, nu, Ef.shape[1], len(system.volumes))
    du, dp, dlam, nrm, res = _solve_step(system, Ef, lin, J, Rm, u, p, lam)
    if not res <= LINEAR_RTOL:
        raise SolverError(f"linear solve failed: relative residual {res:.3e}")
    return du, dp, dlam, nrm, lin


def solve_navier_stokes(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
                        projs: list[CellProjections], faceprojs: dict,
                        opts: NSOptions | None = None,
                        system: GlobalSystem | None = None) -> FlowSolution:
    """Newton iteration on the reduced pair from the Stokes solution, with the
    displacement stopping criterion ||x_n - x_{n+1}|| < tol ||x_n|| on the
    combined full DoF vector x = (free velocities, pressures, multiplier).

    A non-finite increment, or one over DIVERGENCE_GROWTH times the smallest
    so far, stops the iteration as diverged; that step is not applied."""
    opts = opts or NSOptions()
    if not (np.isfinite(opts.tol) and opts.tol > 0):
        raise ValueError(f"Newton tolerance must be finite and > 0, got tol = {opts.tol}")
    mapv, _ = maps
    if system is None:
        system = assemble(mesh, maps, spec, projs, faceprojs)
    sol = solve_stokes(system)
    u, p, lam, factored = sol.u, sol.p, sol.lam, sol.factored
    stokes = system.stokes_factor[0][1]      # K1's factor, which the Stokes solve read

    free = ~system.dirichlet_mask
    has_mean = system.e is not None
    increments, residuals, linear_solves = [], [], []
    converged, diagnostic = False, ""
    for it in range(NEWTON_MAX_ITER):
        try:
            du, dp, dlam, nrm, lin = _newton_step(system, mapv, projs, stokes, u, p, lam)
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed in Newton step {it}") from exc
        residuals.append(nrm)
        linear_solves.append((lin.path, lin.iterations))
        if lin.path != "gmres":
            stokes, factored = None, True       # later steps of this solve factor directly

        inc = float(np.linalg.norm(np.concatenate([du[free], dp, [dlam] if has_mean else []])))
        if not np.isfinite(inc) or (increments and inc > DIVERGENCE_GROWTH * min(increments)):
            diagnostic = (f"Newton diverged at step {it + 1}: increment {inc:.3e}, "
                          f"smallest earlier increment {min(increments, default=float('nan')):.3e}; "
                          f"the iterate before that step is returned")
            increments.append(inc)
            break

        base = float(np.linalg.norm(np.concatenate([u[free], p, [lam] if has_mean else []])))
        u, p, lam = u + du, p + dp, lam + dlam
        increments.append(inc)
        if inc < opts.tol * max(base, 1e-300) or (base == 0.0 and inc == 0.0):
            converged = True
            break
    else:
        diagnostic = (f"Newton did not converge in {NEWTON_MAX_ITER} iterations; "
                      f"last increment {increments[-1]:.3e}")
    return FlowSolution(u=u, p=p, lam=lam, increments=increments, residuals=residuals,
                        converged=converged, diagnostic=diagnostic, saddle_rows=lin.K.shape[0],
                        lu_fill=lin.fill, factored=factored, linear_solves=linear_solves)


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
    """Cell-barycenter values of the projected velocity and the pressure: the
    constant coefficients, since the scaled monomials are 1, 0, 0, ... at
    the barycenter."""
    mapv, mapq = maps
    pk = dim_poly(mapv.k, 3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cell,x,y,z,ux,uy,uz,p\n")
        for ci, proj in enumerate(projs):
            row = [*mesh.cell_stack.barycenter[ci], *(proj.pi_0k[::pk] @ sol.u[mapv.cell_global[ci]]),
                   sol.p[ci * mapq.n_per_cell]]
            fh.write(f"{ci}," + ",".join(f"{v:.17e}" for v in row) + "\n")
