"""Flexible GMRES against dense solves, the float64 factor that a float32
one's miss brings, and Newton steps solved by FGMRES preconditioned with the
Stokes factor: the Krylov path against the direct one (every Jacobian
factored), the fallback to the direct path, one factorisation per solve on
a fresh map, and no solve that reads a factor's L or U."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vemflow import flow
from vemflow.bench import case_spec
from vemflow.cases import make_case
from vemflow.dofspace import build_dof_maps
from vemflow.flow import KRYLOV_CAP, NSOptions, solve_navier_stokes
from vemflow.forms import assemble
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections

# seeded draws of (mesh seed, jitter) for the differential test
_RNG = np.random.default_rng(20261019)
_DRAWS = [(int(s), round(float(j), 3)) for s, j in zip(_RNG.integers(0, 10_000, 2),
                                                        _RNG.uniform(0.0, 0.25, 2))]


def _well_conditioned(seed, n=120):
    """A seeded nonsymmetric sparse matrix, diagonally dominant, and a
    right-hand side."""
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=0.05, random_state=rng, data_rvs=rng.standard_normal)
    return sp.csc_matrix(R + sp.diags(4.0 + rng.uniform(0.0, 4.0, n))), rng.standard_normal(n)


def _ill_conditioned(seed, n=60, cond=1e10):
    """Q diag(s) Q^T with s log-spaced from 1 to 1/cond and Q a seeded random
    orthogonal matrix: its rows have one scale, so equilibration leaves the
    condition number past float32's 1/eps ~ 1.7e7."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = sp.csc_matrix(Q @ np.diag(np.logspace(0.0, -np.log10(cond), n)) @ Q.T)
    return K, K @ rng.standard_normal(n)


@pytest.mark.parametrize("seed", [int(s) for s in _RNG.integers(0, 10_000, 3)])
@pytest.mark.parametrize("precision", ["linear", "float32"])
def test_fgmres_matches_dense_solve(seed, precision):
    """FGMRES preconditioned by a linear map (the float64 LU of K with its
    off-diagonal entries scaled by 0.9) and by a dense float32 LU of K,
    whose solve is not linear at float64 rounding, stops within
    KRYLOV_CAP iterations by the tolerance, at the dense solution: the
    Givens residual it stops on is K x - b's to round-off."""
    K, b = _well_conditioned(seed)
    if precision == "linear":
        Kp = sp.diags(K.diagonal()) + 0.9 * (K - sp.diags(K.diagonal()))
        lu = sla.lu_factor(Kp.toarray())
        M = lambda r: sla.lu_solve(lu, r)
    else:
        lu = sla.lu_factor(K.toarray().astype(np.float32))
        M = lambda r: sla.lu_solve(lu, r.astype(np.float32)).astype(float)
    x, its, converged = flow._fgmres(K, M, b)
    assert converged and 0 < its <= KRYLOV_CAP
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    ref = np.linalg.solve(K.toarray(), b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fgmres_stops_at_the_cap():
    """Unpreconditioned on the ill-conditioned matrix FGMRES runs its one
    cycle to KRYLOV_CAP and reports the miss, with the residual that the
    cycle reached (at most ||b||); a zero right-hand side takes no
    iteration."""
    K, b = _ill_conditioned(0)
    x, its, converged = flow._fgmres(K, lambda r: r, b)
    assert (its, converged) == (KRYLOV_CAP, False)
    assert np.linalg.norm(K @ x - b) <= np.linalg.norm(b)
    x, its, converged = flow._fgmres(K, lambda r: r, np.zeros_like(b))
    assert (its, converged) == (0, True) and not x.any()


def test_float32_miss_factors_in_float64(splu_calls):
    """The float32 factor of a matrix conditioned past float32 leaves
    FGMRES short of KRYLOV_RTOL after KRYLOV_CAP iterations; K is then
    factored in float64, which FGMRES needs one iteration with, and the
    factor stays float64 for later solves.  A solver that factors such a
    matrix reports the path "float64"."""
    K, b = _ill_conditioned(1)
    lu = flow._EquilibratedLU(K, np.arange(K.shape[0]))
    assert lu.dtype == np.float32
    x = lu.solve(b)
    assert lu.dtype == np.float64 and lu.iterations == KRYLOV_CAP + 1 and len(splu_calls) == 2
    assert np.linalg.norm(K @ x - b) <= 1e-13 * np.linalg.norm(b)
    lu.solve(2.0 * b)
    assert lu.iterations == 1 and len(splu_calls) == 2
    lin = flow._EquilibratedLU(K, np.arange(K.shape[0]))
    lin.solve(b)
    assert (lin.path, lin.iterations, lin.fill) == ("float64", KRYLOV_CAP + 1, lu.fill)


def test_each_preconditioner_is_built_after_a_miss(splu_calls):
    """A solver with a guess factors nothing when built.  With the float32
    solver of the ill-conditioned matrix as its guess, the guess misses,
    then the solver's own float32 factor, and its float64 factor serves:
    2 KRYLOV_CAP + 1 iterations, path "float64", one factorisation per
    preconditioner tried."""
    K, b = _ill_conditioned(1)
    guess = flow._EquilibratedLU(K, np.arange(K.shape[0]))
    lin = flow._EquilibratedLU(K, np.arange(K.shape[0]), guess)
    assert (lin.path, lin.fill, len(splu_calls)) == ("direct", 0, 1)
    x = lin.solve(b)
    assert (lin.path, lin.iterations, len(splu_calls)) == ("float64", 2 * KRYLOV_CAP + 1, 3)
    assert lin.guess is None and guess.dtype == np.float32
    assert np.linalg.norm(K @ x - b) <= 1e-13 * np.linalg.norm(b)


def _disc(n, k, **kw):
    mesh = generate_tetra_mesh(n, **kw)
    return (mesh, k, *build_projections(mesh, build_dof_maps(mesh, k)[0]))


def _solve(disc, nu=1.0, direct=False, monkeypatch=None, **opts):
    """ex2-ns at nu on a fresh DoF map; `direct` factors every Jacobian, as
    Newton did before the Krylov path."""
    mesh, k, projs, fps = disc
    maps = build_dof_maps(mesh, k)
    if direct:
        step = flow._newton_step
        monkeypatch.setattr(flow, "_newton_step", lambda system, mapv, projs, stokes, *args:
                            step(system, mapv, projs, None, *args))
    sol = solve_navier_stokes(mesh, maps, case_spec(make_case("ex2-ns", k=k, nu=nu), k), projs, fps,
                              NSOptions(**opts))
    if direct:
        monkeypatch.undo()
    assert sol.converged
    return sol


def _paths(sol):
    return [path for path, _ in sol.linear_solves]


class _FactorProxy:
    """A SuperLU factor that forwards `solve`, `nnz` and `shape` and records
    every attribute read, the forwarded ones included."""

    FORWARD = ("solve", "nnz", "shape")

    def __init__(self, lu, reads):
        self._lu, self._reads = lu, reads

    def __getattr__(self, name):
        self._reads.append(name)
        if name not in self.FORWARD:
            raise AttributeError(name)
        return getattr(self._lu, name)


@pytest.fixture
def factor_reads(monkeypatch):
    """(shapes factored, attributes read from the factors) of every `splu`."""
    made, reads = [], []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: made.append(A.shape) or _FactorProxy(splu(A, **kw), reads))
    return made, reads


@pytest.fixture
def splu_calls(factor_reads):
    return factor_reads[0]


@pytest.mark.parametrize("nu", [0.3, 0.02])
@pytest.mark.parametrize("neumann", [False, True])
def test_preconditioner_inverts_the_stokes_matrix(nu, neumann):
    """K1's factor inverts the Stokes matrix in (u, p/nu, lam),
    E_f^T [nu A1 / nu  B^T; B 0] E_f, which is K1 up to the rounding of
    nu A1 / nu, to float32 rounding, with and without the mean row: one
    application leaves a relative residual of about 1e-6, so FGMRES on that
    matrix misses KRYLOV_RTOL = 1e-13 after two iterations (about 1e-12)
    and meets it after three."""
    mesh, k, projs, fps = _disc(2, 2, jitter=0.1, seed=4)
    maps = build_dof_maps(mesh, k)
    system = assemble(mesh, maps, case_spec(make_case("ex2-ns", k=k, nu=nu), k, neumann=neumann), projs, fps)
    flow.solve_stokes(system)
    stokes = system.stokes_factor[0]
    K = flow._saddle_matrix(system, system.A / nu)
    lin = flow._EquilibratedLU(K, system.order, stokes)
    rhs = np.random.default_rng(0).standard_normal(K.shape[0])
    assert np.linalg.norm(K @ stokes.precondition(rhs) - rhs) <= 1e-5 * np.linalg.norm(rhs)
    x = lin.solve(rhs)
    assert (lin.path, lin.iterations) == ("gmres", 3)
    assert np.linalg.norm(K @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("k,draw,nu", [
    pytest.param(k, _DRAWS[i], nu, id=f"{k}-draw{i}" + ("" if nu == 1.0 else f"-{nu}"))
    for nu in (1.0, 0.1) for i, k in enumerate((2, 3))])
def test_krylov_matches_direct_on_jittered_tets(k, draw, nu, monkeypatch):
    """Newton preconditioned by K1's solver against Newton that factors
    every step: the same step count and solution.  At nu = 1 every step is
    served by K1's solver; at nu = 0.1 the k = 3 draw falls back in its
    first step."""
    seed, jitter = draw
    disc = _disc(2, k, jitter=jitter, seed=seed)
    got = _solve(disc, nu=nu, tol=1e-10)
    ref = _solve(disc, nu=nu, direct=True, monkeypatch=monkeypatch, tol=1e-10)
    if nu == 1.0:
        assert _paths(got) == ["gmres"] * got.newton_iterations
        assert all(0 < its <= KRYLOV_CAP for _, its in got.linear_solves)
    assert _paths(ref) == ["direct"] * ref.newton_iterations
    assert got.newton_iterations == ref.newton_iterations
    for a, b in ((got.u, ref.u), (got.p, ref.p), ([got.lam], [ref.lam])):
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_small_viscosity_falls_back_to_direct(splu_calls):
    """At nu = 0.02 FGMRES misses the tolerance in the first step; that step
    and every later one factor their Jacobians in float32, each then solved
    by three FGMRES iterations on its own factor (as the Stokes matrix is
    by K1's, test_preconditioner_inverts_the_stokes_matrix), and Newton
    keeps its six steps."""
    sol = _solve(_disc(2, 2, seed=0), nu=0.02, tol=1e-10)
    assert sol.newton_iterations == 6
    assert sol.linear_solves == [("fallback", KRYLOV_CAP + 3)] + [("direct", 3)] * 5
    assert sol.factored and len(splu_calls) == 1 + 6


def test_k4_jittered_tets_keep_the_direct_count(monkeypatch):
    """On the jittered k = 4 draw of test_batched's Newton test, where
    scipy's GMRES preconditioned by a float64 K1 factor missed the tolerance
    and fell back, FGMRES preconditioned by the float32 one meets it in
    every step, and Newton keeps the direct path's count."""
    disc = _disc(2, 4, jitter=0.2, seed=48392)
    got = _solve(disc, tol=1e-8)
    ref = _solve(disc, direct=True, monkeypatch=monkeypatch, tol=1e-8)
    assert _paths(got) == ["gmres"] * got.newton_iterations
    assert _paths(ref) == ["direct"] * ref.newton_iterations
    assert got.newton_iterations == ref.newton_iterations


def test_one_factorisation_per_solve(splu_calls):
    """A fresh map factors the nu-free Stokes matrix once, for the Stokes
    start, and that factor preconditions every Newton step."""
    sol = _solve(_disc(2, 2, seed=1), tol=1e-10)
    assert _paths(sol) == ["gmres"] * sol.newton_iterations
    assert sol.factored and len(splu_calls) == 1


def test_no_solve_reads_l_or_u(factor_reads):
    """Reading a factor's L or U makes scipy copy both into CSC matrices kept
    for the factor's life: the Stokes solve on 2^3 cubes and a Newton solve
    that falls back to factoring read neither."""
    made, reads = factor_reads
    mesh = generate_structured_cubes(2)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    sol = flow.solve_stokes(assemble(mesh, maps, case_spec(make_case("ex1-stokes"), 2), projs, fps))
    assert sol.factored and len(made) == 1 and sol.lu_fill > 0
    ns = _solve(_disc(2, 2, seed=0), nu=0.02, tol=1e-10)
    assert _paths(ns) == ["fallback"] + ["direct"] * 5 and len(made) == 1 + 1 + 6
    assert "solve" in reads and "nnz" in reads
    assert reads.count("L") == reads.count("U") == 0
