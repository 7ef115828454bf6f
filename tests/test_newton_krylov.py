"""Newton steps solved by GMRES preconditioned with the Stokes factor: the
Krylov path against the direct one (every Jacobian factored), the fallback
to the direct path, one factorisation per solve on a fresh map, and no
solve that reads a factor's L or U."""

import numpy as np
import pytest
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
    """K1's factor in (u, p/nu, lam) is the exact inverse of the Stokes
    matrix K_nu = E_f^T [nu A1 B^T; B 0] E_f, with and without the mean row:
    GMRES on K_nu itself stops after one iteration."""
    mesh, k, projs, fps = _disc(2, 2, jitter=0.1, seed=4)
    maps = build_dof_maps(mesh, k)
    system = assemble(mesh, maps, case_spec(make_case("ex2-ns", k=k, nu=nu), k, neumann=neumann), projs, fps)
    (_, stokes), _ = flow._stokes_factor(system)
    K, Ef = flow._saddle_matrix(system, system.A)
    lin = flow._NewtonSolve(K, system.order, stokes, nu, Ef.shape[1], len(system.volumes))
    rhs = np.random.default_rng(0).standard_normal(K.shape[0])
    x = lin.solve(rhs)
    assert (lin.path, lin.iterations) == ("gmres", 1)
    assert np.linalg.norm(K @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("k,draw", [(2, _DRAWS[0]), (3, _DRAWS[1])])
def test_krylov_matches_direct_on_jittered_tets(k, draw, monkeypatch):
    seed, jitter = draw
    disc = _disc(2, k, jitter=jitter, seed=seed)
    got = _solve(disc, tol=1e-10)
    ref = _solve(disc, direct=True, monkeypatch=monkeypatch, tol=1e-10)
    assert _paths(got) == ["gmres"] * got.newton_iterations
    assert all(0 < its <= KRYLOV_CAP for _, its in got.linear_solves)
    assert _paths(ref) == ["direct"] * ref.newton_iterations
    assert got.newton_iterations == ref.newton_iterations
    for a, b in ((got.u, ref.u), (got.p, ref.p), ([got.lam], [ref.lam])):
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_small_viscosity_falls_back_to_direct(splu_calls):
    """At nu = 0.02 GMRES misses the tolerance in the first step; that step
    and every later one factor their Jacobians, and Newton keeps its six
    steps."""
    sol = _solve(_disc(2, 2, seed=0), nu=0.02, tol=1e-10)
    assert sol.newton_iterations == 6
    assert sol.linear_solves == [("fallback", KRYLOV_CAP)] + [("direct", 0)] * 5
    assert sol.factored and len(splu_calls) == 1 + 6


def test_k4_jittered_tets_fall_back_with_the_direct_count(monkeypatch):
    """On the jittered k = 4 draw of test_batched's Newton test GMRES cannot
    reach the tolerance; the fallback keeps the direct path's Newton count."""
    disc = _disc(2, 4, jitter=0.2, seed=48392)
    got = _solve(disc, tol=1e-8)
    ref = _solve(disc, direct=True, monkeypatch=monkeypatch, tol=1e-8)
    assert _paths(got)[0] == "fallback" and set(_paths(got)[1:]) <= {"direct"}
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
