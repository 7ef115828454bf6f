import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

from helpers import (
    newton_step_oracle,
    reduce_and_compare,
    reduced_system_oracle,
    restrict_to_reduced,
    saddle_matrix_oracle,
    solve_navier_stokes_full,
    solve_stokes_full,
    solve_stokes_reduced,
    zero_divergence,
)
from vemflow import flow
from vemflow.bench import case_spec
from vemflow.cases import _build, make_case
from vemflow.derham import check_divfree
from vemflow.dofspace import build_dof_maps, cell_basis, interpolate_velocity
from vemflow.flow import (
    DIVERGENCE_GROWTH,
    NSOptions,
    SolverError,
    export_solution_json,
    sample_fields_csv,
    solve_navier_stokes,
    solve_stokes,
)
from vemflow.forms import ProblemSpec, assemble, assemble_convection
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections


def _patch_case(k, nu=1.0):
    """u in [P_k]^3 divergence-free, p in P_{k-1} with zero mean on the cube."""
    x, y, z = sympy.symbols("x y z")
    u = (k * x * z ** (k - 1), k * y * z ** (k - 1), -2 * z**k)
    p = x + 2 * y - 3 * z
    return _build(f"patch-k{k}", u, p, nu, convective=False)


def _spec_for(case, k, stab="drecipe"):
    return ProblemSpec(nu=case.nu, load=case.load, dirichlet=case.velocity, k=k,
                       convective=case.convective, stabilization=stab)


@pytest.mark.parametrize("k", [2, 3])
def test_patch_test_cube2(k, cube2, disc):
    from vemflow.bench import error_h1_velocity, error_l2_pressure

    case = _patch_case(k)
    maps, projs, fps = disc(cube2, k)
    system = assemble(cube2, maps, _spec_for(case, k), projs, fps)
    sol = solve_stokes(system)
    assert error_h1_velocity(sol.u, case, cube2, maps[0], projs) < 1e-8
    assert error_l2_pressure(sol.p, case, cube2, maps[1], projs) < 1e-8
    ui = interpolate_velocity(cube2, maps[0], case.velocity, zero_divergence)
    assert np.max(np.abs(sol.u - ui)) < 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_patch_test_distorted_hex(k, hex_cell, disc):
    from vemflow.bench import error_h1_velocity, error_l2_pressure

    case = _patch_case(k)
    maps, projs, fps = disc(hex_cell, k)
    system = assemble(hex_cell, maps, _spec_for(case, k), projs, fps)
    sol = solve_stokes(system)
    assert error_h1_velocity(sol.u, case, hex_cell, maps[0], projs) < 1e-8
    # single cell: compare against the zero-mean shift of p on this cell
    pq = maps[1].n_per_cell
    pr = projs[0]
    pmean = float(pr.rule.weights @ case.pressure(pr.rule.points)) / pr.vol
    phi = cell_basis(hex_cell, 0, k + 1).eval(pr.rule.points)[:, :pq]
    ph = phi @ sol.p[:pq]
    err = np.sqrt(pr.rule.weights @ (case.pressure(pr.rule.points) - pmean - ph) ** 2)
    assert err < 1e-8


def test_zero_data_stokes(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    system = assemble(cube1, maps, ProblemSpec(nu=1.0, load=zero3, dirichlet=zero3, k=2), projs, fps)
    sol = solve_stokes(system)
    assert np.max(np.abs(sol.u)) < 1e-14 and np.max(np.abs(sol.p)) < 1e-14
    # the residual of the full system at the solution (its data are zero)
    momentum = (system.A @ sol.u + system.B.T @ sol.p)[~system.dirichlet_mask]
    assert np.linalg.norm(momentum) + np.linalg.norm(system.B @ sol.u) < 1e-10


def test_pressure_zero_mean(cube2, disc):
    case = make_case("ex1-stokes")
    maps, projs, fps = disc(cube2, 2)
    system = assemble(cube2, maps, _spec_for(case, 2), projs, fps)
    sol = solve_stokes(system)
    total = 0.0
    norm = 0.0
    pq = maps[1].n_per_cell
    for ci, pr in enumerate(projs):
        coef = sol.p[ci * pq: (ci + 1) * pq]
        total += float(pr.mono_int[:pq] @ coef)
        norm += float(coef @ pr.Hq @ coef)
    assert abs(total) <= 1e-10 * max(1.0, np.sqrt(norm))


def test_stokes_scaling_linearity(cube2, disc):
    """Scaling nu and the load by alpha leaves the velocity unchanged and
    scales the pressure by alpha."""
    case1 = make_case("ex1-stokes", nu=1.0)
    case2 = make_case("ex1-stokes", nu=3.0)   # f is derived from nu: f2 != 3 f1
    maps, projs, fps = disc(cube2, 2)
    alpha = 3.0
    load_scaled = lambda p: alpha * case1.load(p)
    spec1 = _spec_for(case1, 2)
    spec2 = ProblemSpec(nu=alpha * 1.0, load=load_scaled, dirichlet=case1.velocity, k=2)
    s1 = solve_stokes(assemble(cube2, maps, spec1, projs, fps))
    s2 = solve_stokes(assemble(cube2, maps, spec2, projs, fps))
    assert np.max(np.abs(s1.u - s2.u)) < 1e-9 * max(1.0, np.max(np.abs(s1.u)))
    assert np.max(np.abs(alpha * s1.p - s2.p)) < 1e-8 * max(1.0, np.max(np.abs(s1.p)))


def test_navier_stokes_newton(cube2, disc):
    case = make_case("ex2-ns")
    maps, projs, fps = disc(cube2, 2)
    spec = _spec_for(case, 2)
    sol = solve_navier_stokes(cube2, maps, spec, projs, fps, NSOptions(tol=1e-10))
    assert sol.converged, sol.diagnostic     # the divergence stop does not fire
    assert sol.newton_iterations <= 10
    # stopping criterion honored
    state = np.concatenate([sol.u, sol.p, [sol.lam]])
    assert sol.increments[-1] < 1e-10 * np.linalg.norm(state) * 1.01
    # monotone tail (quadratic convergence in practice)
    assert sol.increments[-1] < sol.increments[-2]
    if len(sol.increments) >= 3:
        assert sol.increments[-2] < sol.increments[-3]


def test_navier_stokes_zero_data(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    spec = ProblemSpec(nu=1.0, load=zero3, dirichlet=zero3, k=2, convective=True)
    sol = solve_navier_stokes(cube1, maps, spec, projs, fps)
    assert sol.newton_iterations == 1
    assert np.max(np.abs(sol.u)) < 1e-13


def test_newton_options_validation(cube1, disc, monkeypatch):
    """A Newton tolerance that is not finite and positive is an error,
    raised before any assembly."""
    maps, projs, fps = disc(cube1, 2)
    spec = _spec_for(make_case("ex2-ns"), 2)
    monkeypatch.setattr(flow, "assemble", lambda *a, **kw: pytest.fail("assembled"))
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            solve_navier_stokes(cube1, maps, spec, projs, fps, NSOptions(tol=tol))


def test_newton_nonconvergence_returns_last_iterate(cube2, disc, monkeypatch):
    case = make_case("ex2-ns")
    maps, projs, fps = disc(cube2, 2)
    spec = _spec_for(case, 2)
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    sol = solve_navier_stokes(cube2, maps, spec, projs, fps, NSOptions(tol=1e-10))
    assert not sol.converged
    assert "did not converge" in sol.diagnostic
    assert sol.newton_iterations == 1
    assert np.all(np.isfinite(sol.u))


def test_newton_stops_early_when_diverging():
    """At nu = 0.005 the increments grow by orders of magnitude; Newton stops
    with a diagnostic long before NEWTON_MAX_ITER and keeps a finite iterate."""
    mesh = generate_tetra_mesh(2, seed=0)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    case = make_case("ex2-ns", nu=0.005)
    opts = NSOptions(tol=1e-10)
    sol = solve_navier_stokes(mesh, maps, _spec_for(case, 2), projs, fps, opts)
    assert not sol.converged
    assert "diverged" in sol.diagnostic
    assert sol.newton_iterations < flow.NEWTON_MAX_ITER
    assert sol.increments[-1] > DIVERGENCE_GROWTH * min(sol.increments[:-1])
    assert np.all(np.isfinite(sol.u)) and np.all(np.isfinite(sol.p))
    # the same mesh converges at nu = 0.02 without tripping the rule
    case = make_case("ex2-ns", nu=0.02)
    sol = solve_navier_stokes(mesh, maps, _spec_for(case, 2), projs, fps, opts)
    assert sol.converged and sol.newton_iterations == 6


def test_newton_stops_on_nonfinite_increment(cube1, disc, monkeypatch):
    """A convection matrix of NaN makes the first increment non-finite: the
    iteration stops as diverged and keeps the finite Stokes start."""
    maps, projs, fps = disc(cube1, 2)
    spec = _spec_for(make_case("ex2-ns"), 2)
    start = solve_stokes(assemble(cube1, maps, spec, projs, fps))
    monkeypatch.setattr(flow, "assemble_convection", lambda *args: tuple(
        sp.csc_matrix((np.full_like(M.data, np.nan), M.indices, M.indptr), shape=M.shape)
        for M in assemble_convection(*args)))
    sol = solve_navier_stokes(cube1, maps, spec, projs, fps)
    assert not sol.converged
    assert "diverged" in sol.diagnostic
    assert sol.newton_iterations == 1 and not np.isfinite(sol.increments[0])
    assert np.array_equal(sol.u, start.u) and np.array_equal(sol.p, start.p)


def test_newton_step_checks_the_linear_residual(cube2, disc, monkeypatch):
    """A Newton step whose linear solve leaves a relative residual over
    LINEAR_RTOL raises SolverError, which names the step.  Only the solves
    that K1's solver preconditions, the Newton steps', are perturbed."""
    maps, projs, fps = disc(cube2, 2)
    solve = flow._EquilibratedLU.solve

    def perturbed(self, rhs):
        newton = self.guess is not None
        x = solve(self, rhs)
        return 1.001 * x if newton else x

    monkeypatch.setattr(flow._EquilibratedLU, "solve", perturbed)
    with pytest.raises(SolverError, match="Newton step 0") as err:
        solve_navier_stokes(cube2, maps, _spec_for(make_case("ex2-ns"), 2), projs, fps)
    assert "relative residual" in str(err.value.__cause__)


def test_singular_factor_raises_solver_error(cube2, disc, monkeypatch):
    """SuperLU's RuntimeError on a singular matrix, raised while the Stokes
    solve factors K1, surfaces as a SolverError that names the likely cause."""
    maps, projs, fps = disc(cube2, 2)
    system = assemble(cube2, maps, _spec_for(make_case("ex1-stokes"), 2), projs, fps)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(SolverError, match="singular Stokes system") as err:
        solve_stokes(dataclasses.replace(system, stokes_factor=[]))
    assert "exactly singular" in str(err.value.__cause__)


def _nan_load_spec(convective):
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    nan3 = lambda p: np.full((len(np.atleast_2d(p)), 3), np.nan)
    return ProblemSpec(nu=1.0, load=nan3, dirichlet=zero3, k=2, convective=convective)


def test_navier_stokes_nan_load_fails_in_the_stokes_start(cube1, cube2, disc):
    """On one cube every reduced velocity is Dirichlet, so the reduced
    system never sees the load and its residual is 0: the NaN shows only in
    the recovered pressure."""
    for mesh in (cube1, cube2):
        maps, projs, fps = disc(mesh, 2)
        with pytest.raises(SolverError, match="direct solve failed"):
            solve_navier_stokes(mesh, maps, _nan_load_spec(True), projs, fps)


@pytest.mark.parametrize("n", [1, 2])
def test_stokes_nan_load_fails(n, cube1, cube2, disc):
    mesh = {1: cube1, 2: cube2}[n]
    maps, projs, fps = disc(mesh, 2)
    system = assemble(mesh, maps, _nan_load_spec(False), projs, fps)
    with pytest.raises(SolverError, match="direct solve failed"):
        solve_stokes(system)


@pytest.mark.parametrize("k", [2, 3])
def test_reduced_equivalence(k, cube2, disc):
    case = make_case("ex1-stokes", k=k)
    maps, projs, fps = disc(cube2, k)
    cmp = reduce_and_compare(cube2, maps, _spec_for(case, k), projs, fps)
    assert cmp.max_velocity_diff < 1e-9
    assert cmp.max_pressure_diff < 1e-9
    assert cmp.saving_matches
    from vemflow.polynomials import dim_poly

    assert cmp.expected_saving == (2 * dim_poly(k - 1, 3) - 2) * cube2.n_cells


@pytest.mark.parametrize("k", [2, 3])
def test_reduced_equivalence_neumann(k, cube2, disc):
    """The reduced scheme honours Neumann faces: with traction on x = 0, 1
    (no mean row) it still matches the full solve."""
    case = make_case("ex1-stokes", k=k)
    maps, projs, fps = disc(cube2, k)
    cmp = reduce_and_compare(cube2, maps, case_spec(case, k, neumann=True), projs, fps)
    assert cmp.max_velocity_diff < 1e-9
    assert cmp.max_pressure_diff < 1e-9


@pytest.mark.parametrize("name,k", [("cube2", 2), ("tets2", 3)])
def test_reduced_restriction_matches_cell_assembly(name, k, request, disc):
    """E^T A E and B[::pq] E of the full system equal the cell-by-cell
    reduced assembly, and so do the reduced solutions (full Dirichlet)."""
    mesh = request.getfixturevalue(name)
    case = make_case("ex1-stokes", k=k)
    maps, projs, fps = disc(mesh, k)
    spec = _spec_for(case, k)
    system = assemble(mesh, maps, spec, projs, fps)
    keep, E = system.keep, system.E
    pq = maps[1].n_per_cell
    got = dict(A=E.T @ system.A @ E, B=system.B[::pq] @ E, F=E.T @ system.F,
               e=system.e[::pq], dirichlet_mask=system.dirichlet_mask[keep],
               dirichlet_values=system.dirichlet_values[keep])
    want = reduced_system_oracle(mesh, maps, spec, projs, keep)
    for block in ("A", "B"):
        g, w = got[block].toarray(), getattr(want, block).toarray()
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    assert np.max(np.abs(got["F"] - want.F)) <= 1e-13 * np.max(np.abs(want.F))
    assert np.allclose(got["e"], want.e, rtol=1e-13, atol=0)
    assert np.array_equal(got["dirichlet_mask"], want.dirichlet_mask)
    assert np.array_equal(got["dirichlet_values"], want.dirichlet_values)
    sol, _ = solve_stokes_reduced(mesh, maps, spec, projs, fps)
    ref = solve_stokes_full(want)
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-11 * np.max(np.abs(ref.u))
    assert np.max(np.abs(sol.p - ref.p)) <= 1e-11 * np.max(np.abs(ref.p))


@pytest.mark.parametrize("neumann", [False, True])
def test_saddle_systems_match_oracles(neumann, cube2, disc, monkeypatch):
    """The one saddle builder gives, bit for bit, the restriction to the
    reduced unknowns of the full Stokes and Newton systems of the former
    separate builders, with and without the mean row."""
    case = make_case("ex2-ns")
    maps, projs, fps = disc(cube2, 2)
    spec = case_spec(case, 2, neumann=neumann)
    system = assemble(cube2, maps, spec, projs, fps)
    solved = []

    class Recorder:
        """The linear solver of one step, recording its matrix and right-hand side."""

        def __init__(self, lin):
            self.lin, self.K = lin, lin.K

        def solve(self, rhs):
            solved.append((self.K, rhs))
            return self.lin.solve(rhs)

    step = flow._solve_step
    monkeypatch.setattr(flow, "_solve_step", lambda system, lin, *args: step(system, Recorder(lin), *args))
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    solve_navier_stokes(cube2, maps, spec, projs, fps, system=system)
    (K_s, rhs_s), (K_n, rhs_n) = solved
    # the reduced Stokes solve lifts the Dirichlet data into the range of E
    lifted = dataclasses.replace(
        system, dirichlet_values=system.E @ system.dirichlet_values[system.keep])
    K, rhs, _ = saddle_matrix_oracle(lifted)
    K, rhs = restrict_to_reduced(system, K, rhs)
    assert np.array_equal(K_s.toarray(), K.toarray()) and np.array_equal(rhs_s, rhs)
    stokes = solve_stokes(system)
    C, Cg = assemble_convection(maps[0], projs, stokes.u)
    K, rhs = newton_step_oracle(system, C, Cg, stokes.u, stokes.p, stokes.lam)
    K, rhs = restrict_to_reduced(system, K, rhs)
    assert np.array_equal(K_n.toarray(), K.toarray()) and np.array_equal(rhs_n, rhs)


# seeded draws of (mesh seed, jitter) for the differential tests
_RNG = np.random.default_rng(2017)
_DRAWS = [(int(s), round(float(j), 3)) for s, j in zip(_RNG.integers(0, 10_000, 5),
                                                        _RNG.uniform(0.0, 0.25, 5))]


def _assert_matches_full(sol, ref, mesh, mapv, projs):
    """Production (reduced) against oracle (full) solution: full velocity to
    1e-11 and full pressure to 1e-9 relative, divergence-free to 1e-9."""
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-11 * np.max(np.abs(ref.u))
    assert np.max(np.abs(sol.p - ref.p)) <= 1e-9 * np.max(np.abs(ref.p))
    assert abs(sol.lam - ref.lam) <= 1e-9 * max(1.0, abs(ref.lam))
    assert check_divfree(sol.u, mesh, mapv, projs) <= 1e-9


@pytest.mark.parametrize("k,draw", [(2, _DRAWS[0]), (3, _DRAWS[1]), (4, _DRAWS[2])])
def test_stokes_matches_full_oracle_on_jittered_tets(k, draw):
    seed, jitter = draw
    mesh = generate_tetra_mesh(2, jitter=jitter, seed=seed)
    maps = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, maps[0])
    system = assemble(mesh, maps, _spec_for(make_case("ex1-stokes", k=k), k), projs, fps)
    _assert_matches_full(solve_stokes(system), solve_stokes_full(system), mesh, maps[0], projs)


@pytest.mark.parametrize("nu", [0.1, 10.0])
def test_stokes_multiplier_is_not_scaled_by_nu(nu, tets2, disc):
    """With 1e-2 added to one boundary face's normal moment, the boundary
    data carry a net flux that the zero-mean multiplier absorbs (|lam| about
    1e-3).  The continuity rows of the nu-free matrix are not divided by
    nu, so its solve returns the full system's lam itself."""
    maps, projs, fps = disc(tets2, 2)
    system = assemble(tets2, maps, _spec_for(make_case("ex3-p1", k=2, nu=nu), 2), projs, fps)
    f = int(np.flatnonzero(tets2.boundary_face)[0])
    c = int(tets2.face_cells[f, 0])
    slot = list(tets2.cells[c][0]).index(f)
    g = maps[0].cell_global[c][maps[0].layouts[c].face[slot, 0, 0]]
    values = system.dirichlet_values.copy()
    values[g] += 1e-2
    system = dataclasses.replace(system, dirichlet_values=values)
    got, want = solve_stokes(system).lam, solve_stokes_full(system).lam
    assert abs(want) > 1e-4
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("k", [2, 3])
def test_stokes_matches_full_oracle_neumann(k, cube2, disc):
    maps, projs, fps = disc(cube2, k)
    system = assemble(cube2, maps, case_spec(make_case("ex1-stokes", k=k), k, neumann=True),
                      projs, fps)
    assert system.e is None
    _assert_matches_full(solve_stokes(system), solve_stokes_full(system), cube2, maps[0], projs)


@pytest.mark.parametrize("k,draw", [(2, _DRAWS[3]), (3, _DRAWS[4])])
def test_newton_matches_full_oracle(k, draw):
    """Newton on the reduced pair takes the full system's steps: the same
    iteration count on ex2-ns and the same solution."""
    seed, jitter = draw
    mesh = generate_tetra_mesh(2, jitter=jitter, seed=seed)
    maps = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, maps[0])
    spec = _spec_for(make_case("ex2-ns", k=k), k)
    system = assemble(mesh, maps, spec, projs, fps)
    opts = NSOptions(tol=1e-10)
    sol = solve_navier_stokes(mesh, maps, spec, projs, fps, opts, system=system)
    ref = solve_navier_stokes_full(mesh, maps, spec, projs, fps, opts, system=system)
    assert sol.converged and ref.converged
    assert sol.newton_iterations == ref.newton_iterations
    _assert_matches_full(sol, ref, mesh, maps[0], projs)


def test_nested_dissection_beats_colamd():
    """The saddle order is a permutation with the multiplier last, and on
    4^3 cubes at k = 2 its LU fill is below COLAMD's on the same matrix."""
    mesh = generate_structured_cubes(4)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    system = assemble(mesh, maps, _spec_for(make_case("ex1-stokes"), 2), projs, fps)
    K = flow._saddle_matrix(system, system.A)
    n = K.shape[0]
    assert np.array_equal(np.sort(system.order), np.arange(n)) and system.order[-1] == n - 1
    fill_nd = flow._EquilibratedLU(K, system.order).fill
    d = 1.0 / np.sqrt(np.asarray(abs(K).max(axis=1).todense()).ravel())
    lu = spla.splu((sp.diags(d) @ K @ sp.diags(d)).tocsc(), permc_spec="COLAMD")
    assert fill_nd < lu.nnz


def test_reduced_zero_data(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    sol, _ = solve_stokes_reduced(cube1, maps, ProblemSpec(nu=1.0, load=zero3, dirichlet=zero3, k=2), projs, fps)
    assert np.max(np.abs(sol.u)) < 1e-14
    assert np.max(np.abs(sol.p)) < 1e-14


def test_solution_export(tmp_path, cube1, disc):
    case = make_case("ex1-stokes")
    maps, projs, fps = disc(cube1, 2)
    sol = solve_stokes(assemble(cube1, maps, _spec_for(case, 2), projs, fps))
    jpath = tmp_path / "sol.json"
    export_solution_json(sol, str(jpath), meta={"case": "ex1-stokes"})
    data = json.loads(jpath.read_text())
    assert len(data["velocity_dofs"]) == maps[0].ndof
    assert data["metadata"]["case"] == "ex1-stokes"
    cpath = tmp_path / "fields.csv"
    sample_fields_csv(cube1, maps, projs, sol, str(cpath))
    lines = cpath.read_text().splitlines()
    assert lines[0] == "cell,x,y,z,ux,uy,uz,p"
    assert len(lines) == 1 + cube1.n_cells
