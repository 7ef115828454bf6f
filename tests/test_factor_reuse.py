"""The Stokes factor kept on the DoF map: the nu-free solve, when a factor
is reused, when it is not, and that a reused factor gives the fresh one's
solution."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helpers import cell_projection_loop
from vemflow import flow
from vemflow.bench import case_spec
from vemflow.cases import make_case
from vemflow.dofspace import FactorCache, build_dof_maps
from vemflow.flow import NSOptions, solve_navier_stokes, solve_stokes
from vemflow.forms import assemble
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections

# the (case, viscosity) pairs of the benchmark's sweep
SWEEP = [(c, nu) for c in ("ex1-stokes", "ex3-p1", "ex3-p2") for nu in (0.1, 1.0, 10.0)]


@pytest.fixture(scope="module")
def sweep_mesh():
    """The sweep's n = 2 tetra mesh at k = 3 with its projections; each test
    takes a fresh DoF map, and so a fresh factor cache, from `_maps`."""
    mesh = generate_tetra_mesh(2, seed=5)
    return (mesh, *build_projections(mesh, build_dof_maps(mesh, 3)[0]))


@pytest.fixture(scope="module")
def cube_mesh():
    mesh = generate_structured_cubes(2)
    return (mesh, *build_projections(mesh, build_dof_maps(mesh, 2)[0]))


def _maps(disc, k):
    mesh, projs, fps = disc
    return mesh, build_dof_maps(mesh, k), projs, fps


def _system(disc, name, nu=1.0, **kw):
    mesh, maps, projs, fps = disc
    k = maps[0].k
    return assemble(mesh, maps, case_spec(make_case(name, k=k, nu=nu), k, **kw), projs, fps)


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: calls.append(A.shape) or splu(A, **kw))
    return calls


def _assert_close(got, ref, rtol_u, rtol_p=None):
    """Velocity within rtol_u, pressure and multiplier within rtol_p
    (default rtol_u), relative to the largest entry of the reference."""
    rtol_p = rtol_u if rtol_p is None else rtol_p
    for a, b, rtol in ((got.u, ref.u, rtol_u), (got.p, ref.p, rtol_p), ([got.lam], [ref.lam], rtol_p)):
        assert np.max(np.abs(np.subtract(a, b))) <= rtol * max(np.max(np.abs(b)), 1.0)


def test_sweep_factors_at_most_twice(sweep_mesh, splu_calls):
    """Nine (case, nu) pairs on one map: the first solve stores the key, the
    second keeps its factor, the other seven reuse it."""
    disc = _maps(sweep_mesh, 3)
    sols = [solve_stokes(_system(disc, c, nu)) for c, nu in SWEEP]
    assert [s.factored for s in sols] == [True, True] + [False] * 7
    assert len(splu_calls) == 2
    assert len({(s.saddle_rows, s.lu_fill) for s in sols}) == 1


def test_fresh_maps_factor_every_solve(cube_mesh, splu_calls):
    """One solve per map: one factorisation each, and the map keeps none."""
    for nu in (0.5, 2.0):
        disc = _maps(cube_mesh, 2)
        assert solve_stokes(_system(disc, "ex1-stokes", nu)).factored
        assert disc[1][0].factors.value is None
    assert len(splu_calls) == 2


def test_newton_factors_every_step(cube_mesh, splu_calls):
    """Newton factors its Stokes guess and each Jacobian; on a map that has
    seen the Stokes matrix before, only the guess reuses a factor."""
    disc = _maps(cube_mesh, 2)
    mesh, maps, projs, fps = disc
    spec = case_spec(make_case("ex2-ns"), 2)
    counts = []
    for _ in range(3):
        before = len(splu_calls)
        sol = solve_navier_stokes(mesh, maps, spec, projs, fps, NSOptions(tol=1e-10))
        assert sol.converged and sol.factored
        counts.append((len(splu_calls) - before, sol.newton_iterations))
    (n1, it1), (n2, it2), (n3, it3) = counts
    assert it1 == it2 == it3 > 1
    assert (n1, n2, n3) == (1 + it1, 1 + it1, it1)


def test_reused_factor_matches_fresh(sweep_mesh):
    """Every sweep pair's (u, p, lam) from the map's kept factor equals the
    solution from a factor of its own."""
    disc = _maps(sweep_mesh, 3)
    for c, nu in SWEEP:
        system = _system(disc, c, nu)
        got = solve_stokes(system)
        ref = solve_stokes(dataclasses.replace(system, factors=FactorCache()))
        assert ref.factored
        _assert_close(got, ref, 1e-12)
    assert not got.factored


@pytest.mark.parametrize("nu", [1.0, 0.1, 10.0])
def test_nu_free_solve_matches_direct_solve(nu, sweep_mesh):
    """The solve in (u, p/nu) against the direct solve of [nu A1 B^T; B 0]
    in (u, p), the Stokes solve before the nu-free unknowns: bit for bit at
    nu = 1; at other viscosities the two factors differ in round-off, and
    the solutions agree to the bounds of the full-system oracle tests
    (velocity 1e-11, pressure 1e-9; ex3-p1 at nu = 10 differs by 8e-11 in
    the pressure, as each does from the full solve)."""
    system = _system(_maps(sweep_mesh, 3), "ex3-p1", nu)
    sol = solve_stokes(system)
    A = system.A
    u0 = system.E @ system.dirichlet_values[system.red.keep]
    step = flow._solve_step(system, *flow._factor(system, A), A, A @ u0 - system.F, u0,
                            np.zeros(system.ndof_q), 0.0)
    direct = flow.FlowSolution(u=u0 + step.u, p=step.p, lam=step.lam)
    if nu == 1.0:
        assert np.array_equal(sol.u, direct.u) and np.array_equal(sol.p, direct.p)
        assert sol.lam == direct.lam and sol.lu_fill == step.lu_fill
    else:
        _assert_close(sol, direct, 1e-11, 1e-9)


def _y_plane_neumann(centroid, normal):
    return abs(abs(normal[1]) - 1.0) < 1e-12


def _variants(name, disc):
    """A system and one with a single input of the nu-free Stokes matrix
    changed, on the same map."""
    if name == "unit":
        return _system(disc, "ex1-stokes"), _system(disc, "ex1-stokes", stabilization="unit")
    if name == "neumann":
        return _system(disc, "ex1-stokes"), _system(disc, "ex1-stokes", neumann=True)
    if name == "loop-projections":
        mesh, maps, projs, fps = disc
        loop = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
        return _system(disc, "ex1-stokes"), _system((mesh, maps, loop, fps), "ex1-stokes")
    # another Dirichlet mask, both without the mean row
    mesh, maps, projs, fps = disc
    case = make_case("ex1-stokes")
    base = case_spec(case, 2, neumann=True)
    other = dataclasses.replace(base, neumann_faces=_y_plane_neumann)
    return tuple(assemble(mesh, maps, s, projs, fps) for s in (base, other))


@pytest.mark.parametrize("variant,mesh", [("unit", "sweep_mesh"), ("neumann", "sweep_mesh"),
                                          ("loop-projections", "sweep_mesh"),
                                          ("dirichlet-mask", "cube_mesh")])
def test_cache_misses_on_a_changed_input(variant, mesh, request, splu_calls):
    """A kept factor is not reused for a system that differs in one input of
    the matrix; the new key evicts it, so the first system factors again."""
    disc = _maps(request.getfixturevalue(mesh), 3 if mesh == "sweep_mesh" else 2)
    base, other = _variants(variant, disc)
    if variant == "loop-projections":
        assert not np.array_equal(base.A1.data, other.A1.data)
    if variant == "dirichlet-mask":
        assert base.e is None and other.e is None
        assert not np.array_equal(base.dirichlet_mask, other.dirichlet_mask)
    assert [solve_stokes(base).factored for _ in range(3)] == [True, True, False]
    got = solve_stokes(other)
    assert got.factored
    _assert_close(got, solve_stokes(dataclasses.replace(other, factors=FactorCache())), 1e-12)
    assert solve_stokes(base).factored
    assert len(splu_calls) == 5

