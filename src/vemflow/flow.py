"""Linear Stokes solve and Newton iteration for the discrete Navier-Stokes
problem, and solution export.

Every linear solve runs on the reduced pair (Beirao da Veiga, Lovadina &
Vacca, ESAIM:M2AN 2017): the restriction E_f^T [J B^T; B 0] E_f of the full
saddle system to the free velocities without divergence moments (E_f, the
system's `Ef`) and to one constant pressure per cell.  The solution of the
full system lies in the range of E, so the velocity is E u_r; the full
pressure comes back cell by cell from the divergence-moment rows of the
momentum equation and the reduced cell mean.

Every reduced solve, Stokes or Newton, is in the unknowns (u, p/nu, lam):
the momentum and zero-mean rows are divided by nu and p is scaled back by
nu; the continuity rows are not divided, so lam is the multiplier itself.
With the viscous block A = nu A1 assembled as A1 (`forms.assemble`), the
Stokes matrix K1 = E_f^T [A1 B^T; B 0] E_f depends on neither nu nor the
load case:
    K1 (u, p/nu, lam) = (E_f^T (F/nu - A1 u0), -B u0, 0)
with u0 the lifted Dirichlet data.  A Newton step's velocity block is the
Jacobian over nu, (nu A1 + C + Cg) / nu, which at C = 0 is A1, so its
matrix is then K1.  At nu = 1 every division is by 1, and the matrices and
solutions are those of the solve in (u, p), bit for bit.

One solver, `_EquilibratedLU`, solves every reduced matrix K by
right-preconditioned flexible GMRES in float64 (`_fgmres`: one cycle of at
most KRYLOV_CAP iterations to a relative residual of KRYLOV_RTOL).  It
tries up to three preconditioners, each built only once the one before it
has missed: K1's kept solver, for a Newton step; K's own sparse LU factor
in float32, equilibrated and in the system's geometric nested-dissection
order; that factor in float64 (dsgesv's rule).  FGMRES recovers float64
accuracy from a float32 factor in a few iterations, where GMRES proper
stalls, since a float32 solve is not linear at float64 rounding.

K1 is made of the operators that the DoF map keeps (A1, E_f, B, the
zero-mean row, the order), so its solver is kept with them: the first solve
on them builds it into the system's `stokes_factor` slot, which every
system of those operators shares, and it goes when the map evicts them or
dies.  Nothing that depends on nu or the case (F, the boundary values, u,
p) is kept.

Navier-Stokes factors at most once per solve: Newton starts from the
Stokes solution, and K1's solver, which the Stokes solve read from that
slot, preconditions every step; in the diffusion-dominated regime K1 is
close to the Jacobian (Elman, Silvester & Wathen, Finite Elements and Fast
Iterative Solvers, ch. 8).  A step that misses with it factors its own
matrix, and so does every later step of that solve.  A solve that has not
converged after NEWTON_MAX_ITER steps returns its last iterate, marked
unconverged."""

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
# right-hand side; otherwise the solver builds its next preconditioner: a
# float32 factor of the matrix after K1's solver, a float64 one after that.
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
    """The solver of a reduced saddle matrix K: flexible GMRES on K in
    float64, preconditioned in turn by an optional `guess` (K1's kept
    solver, for a Newton step), by K's own LU factor in float32 and by that
    factor in float64, each built only once the one before it has missed.
    Without a guess K is factored when the solver is built; with one, a
    solve that the guess serves builds neither the equilibration nor a
    factor.

    K's factor is taken after one pass of symmetric inf-norm equilibration
    and in the given symmetric order.  Saddle systems mix strain-scaled
    velocity rows with volume-scaled constraint rows; rescaling keeps the
    factorization accurate on the constraint block (the diagonal is zero
    there, so plain Jacobi would not apply).  The scaling and the
    permutation work on K's CSC arrays.  SuperLU keeps a diagonal pivot
    unless it is under 1% of its column's largest entry (scipy's default
    threshold is 1, partial pivoting): the order is symmetric, so taking
    the diagonal keeps the fill near that order's.  A threshold of 0,
    static pivoting, gives a wrong factor of the saddle matrix on 6^3
    cubes.

    `precondition` is the factor's own solve, accurate to float32; `solve`
    is K^-1 to KRYLOV_RTOL by `_fgmres` (mixed-precision refinement: Carson
    & Higham, SIAM J. Sci. Comput. 40(2), 2018).  Once the float32 factor
    misses, K is factored again in float64 (LAPACK dsgesv's rule) for this
    and every later solve.  `path` names the preconditioner that served:
    "gmres" the guess, "fallback" K's float32 factor after the guess
    missed, "direct" that factor without a guess, "float64" the float64
    factor.  `iterations` is the FGMRES iterations of the last `solve`, all
    its preconditioners' together.

    `fill` is the count of entries SuperLU stores for L and U of the factor
    that served; with the same pivots it is the same in float32 and
    float64.  Reading the factor's `L` or `U` would have scipy copy both
    into CSC matrices that live as long as the factor, so nothing reads
    them."""

    def __init__(self, K: sp.csc_matrix, order: np.ndarray, guess: _EquilibratedLU | None = None):
        self.K, self.order, self.guess = K, order, guess
        self.path, self.iterations, self.fill = "direct", 0, 0
        if guess is None:
            self._factor(np.float32)

    def _factor(self, dtype) -> None:
        # d_i K_ij d_j on the columns taken in `order`, their rows renumbered
        K, order = self.K, self.order
        rowmax = np.zeros(K.shape[0])
        np.maximum.at(rowmax, K.indices, np.abs(K.data))
        d = self.d = 1.0 / np.sqrt(np.where(rowmax == 0, 1.0, rowmax))
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
        self.iterations = 0
        if self.guess is not None:
            x, self.iterations, converged = _fgmres(self.K, self.guess.precondition, rhs)
            if converged:
                self.path, self.fill = "gmres", self.guess.fill
                return x
            self.path, self.guess = "fallback", None
            self._factor(np.float32)
        x, more, converged = _fgmres(self.K, self.precondition, rhs)
        self.iterations += more
        if not converged and self.dtype == np.float32:
            self.path = "float64"
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


def _saddle_matrix(system: GlobalSystem, J: sp.spmatrix) -> sp.csc_matrix:
    """The reduced saddle matrix E_f^T [J B^T; B 0] E_f: the velocity block
    J restricted to the free reduced velocities (`system.Ef`), tested
    against the cells' constant pressure rows B[::pq], bordered by the
    zero-mean row e[::pq] when present.

    J is the velocity block over nu, CSC: A1 for Stokes, the Newton
    Jacobian (nu A1 + C + Cg) / nu for Navier-Stokes."""
    pq = system.pressure_ints.shape[1]
    Ef = system.Ef
    J_r = Ef.T @ J @ Ef
    B_r = system.B[::pq] @ Ef
    if system.e is None:
        return sp.bmat([[J_r, B_r.T], [B_r, None]], format="csc")
    e = sp.csr_matrix(system.e[None, ::pq])
    return sp.bmat([[J_r, B_r.T, None], [B_r, None, e.T], [None, e, None]], format="csc")


def _solve_step(system: GlobalSystem, lu: _EquilibratedLU, J: sp.spmatrix, Rm: np.ndarray,
                u: np.ndarray, p: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The increment (du, dp, dlam) of [J B^T; B 0] (du, dp) = -(Rm, B u + lam e)
    with e . (p + dp) = 0, solved on the reduced pair with the solver `lu`
    of its saddle matrix, and the relative residual of that solve.  In the
    unknowns (u, p/nu, lam) J, Rm and p are over nu, and so is dp.

    u is in the range of E, and so is du.  The pressure comes back cell by
    cell from the divergence-moment rows of the momentum equation, where B^T
    is |P| times the identity on the non-constant moments:
        dp_b = (-Rm - J du)[d5_b] / |P|                      (b >= 1)
        dp_0 = mean - sum_{b>=1} int m_b dp_b / |P|
    with `mean` the reduced (cell-mean) pressure increment."""
    Ef = system.Ef
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
    return du, dp.ravel(), float(x[nf + nc]) if system.e is not None else 0.0, res


def solve_stokes(system: GlobalSystem) -> FlowSolution:
    """Solve of the assembled Stokes system on the reduced pair, in the
    unknowns (u, p/nu, lam) of the nu-free matrix K1, by FGMRES
    preconditioned with K1's factor: the one in the system's shared slot,
    or one factored here into it.  `linear_solves` holds the one solve's
    path, "direct" for the float32 factor or "float64" once K1 had to be
    factored in float64, and its FGMRES iterations."""
    nu = system.nu
    u0 = system.E @ system.dirichlet_values[system.keep]
    factored = not system.stokes_factor
    try:
        if factored:
            system.stokes_factor.append(_EquilibratedLU(_saddle_matrix(system, system.A1), system.order))
        lu = system.stokes_factor[0]
        du, dp, lam, res = _solve_step(system, lu, system.A1, system.A1 @ u0 - system.F / nu, u0,
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
    return FlowSolution(u=u, p=p, lam=lam, saddle_rows=lu.K.shape[0],
                        lu_fill=lu.fill, factored=factored, linear_solves=[(lu.path, lu.iterations)])


def _newton_step(system: GlobalSystem, mapv: DofMapV, projs: list[CellProjections],
                 stokes: _EquilibratedLU | None, u: np.ndarray, p: np.ndarray,
                 lam: float) -> tuple[np.ndarray, np.ndarray, float, _EquilibratedLU]:
    """The Newton increment (du, dp, dlam) at (u, p, lam) for the Jacobian
    nu A1 + C(u) + Cg(u), solved in (u, p/nu, lam), and the solver that
    solved it, preconditioned with K1's solver `stokes` when given.  A1, C
    and Cg lie on the DoF map's one pattern, so the Jacobian is the sum of
    their data.  A relative residual of the reduced solve over LINEAR_RTOL
    raises `SolverError`."""
    C, Cg = assemble_convection(mapv, projs, u)
    A1, nu = system.A1, system.nu
    Rm = nu * (A1 @ u) + C @ u + system.B.T @ p - system.F
    J = sp.csc_matrix(((nu * A1.data + C.data + Cg.data) / nu, A1.indices, A1.indptr), shape=A1.shape)
    lin = _EquilibratedLU(_saddle_matrix(system, J), system.order, stokes)
    du, dp, dlam, res = _solve_step(system, lin, J, Rm / nu, u, p / nu, lam)
    if not res <= LINEAR_RTOL:
        raise SolverError(f"linear solve failed: relative residual {res:.3e}")
    return du, nu * dp, dlam, lin


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
    stokes = system.stokes_factor[0]      # K1's solver, which the Stokes solve read

    free = ~system.dirichlet_mask
    has_mean = system.e is not None
    increments, linear_solves = [], []
    converged, diagnostic = False, ""
    for it in range(NEWTON_MAX_ITER):
        try:
            du, dp, dlam, lin = _newton_step(system, mapv, projs, stokes, u, p, lam)
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed in Newton step {it}") from exc
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
    return FlowSolution(u=u, p=p, lam=lam, increments=increments,
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
