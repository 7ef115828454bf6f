"""The case-free operators and their Stokes factor kept on the DoF map: the
nu-free solve, when a factor or an operator is reused, when it is not, that
what is reused gives a fresh map's operators and solution, and that the
factor dies with its map."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helpers import cell_projection_loop
from vemflow import flow, forms
from vemflow.bench import case_spec
from vemflow.cases import make_case
from vemflow.dofspace import build_dof_maps
from vemflow.flow import NSOptions, solve_navier_stokes, solve_stokes
from vemflow.forms import assemble
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections

# the (case, viscosity) pairs of the benchmark's sweep
SWEEP = [(c, nu) for c in ("ex1-stokes", "ex3-p1", "ex3-p2") for nu in (0.1, 1.0, 10.0)]


@pytest.fixture(scope="module")
def sweep_mesh():
    """The sweep's n = 2 tetra mesh at k = 3 with its projections; each test
    takes a fresh DoF map, and so a fresh operator cache, from `_maps`."""
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


def _fresh(system):
    """The system with an empty slot of its own in place of the shared one,
    so that its solve factors afresh."""
    return dataclasses.replace(system, stokes_factor=[])


def _assert_close(got, ref, rtol_u, rtol_p=None):
    """Velocity within rtol_u, pressure and multiplier within rtol_p
    (default rtol_u), relative to the largest entry of the reference."""
    rtol_p = rtol_u if rtol_p is None else rtol_p
    for a, b, rtol in ((got.u, ref.u, rtol_u), (got.p, ref.p, rtol_p), ([got.lam], [ref.lam], rtol_p)):
        assert np.max(np.abs(np.subtract(a, b))) <= rtol * max(np.max(np.abs(b)), 1.0)


def test_sweep_factors_once(sweep_mesh, splu_calls):
    """Nine (case, nu) pairs on one map: the first solve factors K1 and keeps
    the factor with the map's operators, the other eight reuse it."""
    disc = _maps(sweep_mesh, 3)
    sols = [solve_stokes(_system(disc, c, nu)) for c, nu in SWEEP]
    assert [s.factored for s in sols] == [True] + [False] * 8
    assert len(splu_calls) == 1
    assert len({(s.saddle_rows, s.lu_fill) for s in sols}) == 1


def test_fresh_maps_factor_every_solve(cube_mesh, splu_calls):
    """One solve per map: one factorisation each."""
    for nu in (0.5, 2.0):
        disc = _maps(cube_mesh, 2)
        assert solve_stokes(_system(disc, "ex1-stokes", nu)).factored
    assert len(splu_calls) == 2


@pytest.mark.parametrize("name", ["ex1-stokes", "ex2-ns"])
def test_factor_dies_with_its_map(name):
    """With the cycle collector off, the factor of a fresh map's Stokes or
    Navier-Stokes solve is freed by reference counting once the system, the
    solution and the discretisation are gone: no reference cycle between
    the map, its cache entry and the system keeps it past its op."""
    mesh = generate_structured_cubes(2)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    spec = case_spec(make_case(name), 2)
    gc.disable()
    try:
        system = assemble(mesh, maps, spec, projs, fps)
        sol = (solve_navier_stokes(mesh, maps, spec, projs, fps, system=system) if spec.convective
               else solve_stokes(system))
        assert sol.factored and sol.converged
        lu = weakref.ref(system.stokes_factor[0])
        assert isinstance(lu(), flow._EquilibratedLU)
        del system, sol, mesh, maps, projs, fps
        assert lu() is None
    finally:
        gc.enable()


def test_newton_factors_once_per_solve(cube_mesh, splu_calls):
    """Newton factors only its Stokes guess and solves every Jacobian by
    GMRES preconditioned with that factor; later solves on the same map
    read the kept factor for the guess and factor nothing."""
    disc = _maps(cube_mesh, 2)
    mesh, maps, projs, fps = disc
    spec = case_spec(make_case("ex2-ns"), 2)
    counts = []
    for _ in range(3):
        before = len(splu_calls)
        sol = solve_navier_stokes(mesh, maps, spec, projs, fps, NSOptions(tol=1e-10))
        assert sol.converged
        assert [path for path, _ in sol.linear_solves] == ["gmres"] * sol.newton_iterations
        assert sol.factored == (len(splu_calls) > before)
        counts.append((len(splu_calls) - before, sol.newton_iterations))
    (n1, it1), (n2, it2), (n3, it3) = counts
    assert it1 == it2 == it3 > 1
    assert (n1, n2, n3) == (1, 0, 0)


def test_reused_factor_matches_fresh(sweep_mesh):
    """Every sweep pair's (u, p, lam) from the map's kept factor equals the
    solution from a factor of its own."""
    disc = _maps(sweep_mesh, 3)
    for c, nu in SWEEP:
        system = _system(disc, c, nu)
        got = solve_stokes(system)
        _assert_close(got, solve_stokes(_fresh(system)), 1e-12)
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
    u0 = system.E @ system.dirichlet_values[system.keep]
    lu = flow._EquilibratedLU(flow._saddle_matrix(system, A), system.order)
    du, dp, lam, _ = flow._solve_step(system, lu, A, A @ u0 - system.F, u0, np.zeros(system.ndof_q), 0.0)
    direct = flow.FlowSolution(u=u0 + du, p=dp, lam=lam)
    if nu == 1.0:
        assert np.array_equal(sol.u, direct.u) and np.array_equal(sol.p, direct.p)
        assert sol.lam == direct.lam and sol.lu_fill == lu.fill
    else:
        _assert_close(sol, direct, 1e-11, 1e-9)


def _y_plane_neumann(centroid, normal):
    return abs(abs(normal[1]) - 1.0) < 1e-12


def _variants(name, disc):
    """Assemblers of a system and of one with a single input of the nu-free
    Stokes matrix changed, on the same map."""
    mesh, maps, projs, fps = disc
    if name == "unit":
        return lambda: _system(disc, "ex1-stokes"), lambda: _system(disc, "ex1-stokes", stabilization="unit")
    if name == "neumann":
        return lambda: _system(disc, "ex1-stokes"), lambda: _system(disc, "ex1-stokes", neumann=True)
    if name == "loop-projections":
        loop = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
        return lambda: _system(disc, "ex1-stokes"), lambda: _system((mesh, maps, loop, fps), "ex1-stokes")
    # another Dirichlet mask, both without the mean row
    base = case_spec(make_case("ex1-stokes"), 2, neumann=True)
    other = dataclasses.replace(base, neumann_faces=_y_plane_neumann)
    return tuple((lambda s=s: assemble(mesh, maps, s, projs, fps)) for s in (base, other))


@pytest.mark.parametrize("variant,mesh", [("unit", "sweep_mesh"), ("neumann", "sweep_mesh"),
                                          ("loop-projections", "sweep_mesh"),
                                          ("dirichlet-mask", "cube_mesh")])
def test_cache_misses_on_a_changed_input(variant, mesh, request, splu_calls):
    """A kept factor is not reused for a system that differs in one input of
    the matrix.  Its new key evicts the kept operators with their factor: a
    system still held keeps its own factor, and a re-assembled one factors
    again."""
    disc = _maps(request.getfixturevalue(mesh), 3 if mesh == "sweep_mesh" else 2)
    make_base, make_other = _variants(variant, disc)
    base = make_base()
    assert [solve_stokes(base).factored for _ in range(3)] == [True, False, False]
    other = make_other()
    if variant == "loop-projections":
        assert not np.array_equal(base.A1.data, other.A1.data)
    if variant == "dirichlet-mask":
        assert base.e is None and other.e is None
        assert not np.array_equal(base.dirichlet_mask, other.dirichlet_mask)
    got = solve_stokes(other)
    assert got.factored
    _assert_close(got, solve_stokes(_fresh(other)), 1e-12)
    assert not solve_stokes(base).factored
    assert solve_stokes(make_base()).factored
    # base, other, other's fresh reference, and base re-assembled
    assert len(splu_calls) == 4


def _counted(monkeypatch, name):
    """Count the calls of forms.<name>, which assembly looks up at call time."""
    calls = []
    fn = getattr(forms, name)
    monkeypatch.setattr(forms, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


OPERATORS = ("A1", "B", "e", "dirichlet_mask", "keep", "E", "Ef", "pressure_ints", "order")


def _same_operators(got, want):
    for name in ("A1", "B", "E", "Ef"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)
    for name in ("dirichlet_mask", "order", "e", "pressure_ints"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_sweep_builds_the_operators_once(sweep_mesh, monkeypatch):
    """Nine (case, nu) pairs on one map run the cell kernel once per cell
    and the nested dissection once in all: every system holds the operators
    of the first assembly, the same objects."""
    a_calls = _counted(monkeypatch, "local_a")
    nd_calls = _counted(monkeypatch, "nested_dissection")
    disc = _maps(sweep_mesh, 3)
    systems = [_system(disc, c, nu) for c, nu in SWEEP]
    assert disc[0].n_cells == 48
    assert (len(a_calls), len(nd_calls)) == (48, 1)
    for system in systems[1:]:
        assert all(getattr(system, name) is getattr(systems[0], name) for name in OPERATORS)


def test_kept_operators_match_a_fresh_map(sweep_mesh):
    """Every sweep pair's operators equal those of a fresh map's assembly bit
    for bit, and its solution that map's solution."""
    disc = _maps(sweep_mesh, 3)
    for c, nu in SWEEP:
        got, want = _system(disc, c, nu), _system(_maps(sweep_mesh, 3), c, nu)
        _same_operators(got, want)
        _assert_close(solve_stokes(got), solve_stokes(want), 1e-12)


def _changed_input(variant, disc, monkeypatch):
    """A system on the map of `disc` with one input of its operators changed."""
    mesh, maps, projs, fps = disc
    if variant == "unit":
        return _system(disc, "ex1-stokes", stabilization="unit")
    if variant == "kernel":
        kernel = forms.local_a
        monkeypatch.setattr(forms, "local_a", lambda *a, **kw: kernel(*a, **kw))
        try:
            return _system(disc, "ex1-stokes")
        finally:
            monkeypatch.setattr(forms, "local_a", kernel)
    if variant == "neumann":
        return _system(disc, "ex1-stokes", neumann=True)
    if variant == "loop-projections":
        loop = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
        return _system((mesh, maps, loop, fps), "ex1-stokes")
    # the sweep mesh at another seed has the same topology, so the map's
    # numbering and pattern serve it; with the sweep mesh's projections, only
    # the key's mesh differs
    return _system((generate_tetra_mesh(2, seed=6), maps, projs, fps), "ex1-stokes")


@pytest.mark.parametrize("variant", ["unit", "kernel", "neumann", "loop-projections", "other-mesh"])
def test_operator_cache_misses_on_a_changed_input(variant, sweep_mesh, monkeypatch):
    """A system that differs in one input of the kept operators builds its
    own, and the new key evicts the kept ones, so the first system builds
    them again.  The calls count the cell kernel of each build."""
    a_calls = _counted(monkeypatch, "local_a")
    disc = _maps(sweep_mesh, 3)
    first = _system(disc, "ex1-stokes")
    assert _system(disc, "ex1-stokes").A1 is first.A1 and len(a_calls) == 48
    other = _changed_input(variant, disc, monkeypatch)
    assert len(a_calls) == 96 and other.A1 is not first.A1
    again = _system(disc, "ex1-stokes")
    assert len(a_calls) == 144 and again.A1 is not first.A1
    _same_operators(again, first)


def test_another_map_builds_its_own_operators(sweep_mesh, monkeypatch):
    """Each map keeps its own operators: a second map of the same mesh
    builds them, and the first map keeps its own."""
    a_calls = _counted(monkeypatch, "local_a")
    disc, disc2 = _maps(sweep_mesh, 3), _maps(sweep_mesh, 3)
    first = _system(disc, "ex1-stokes")
    second = _system(disc2, "ex1-stokes")
    assert len(a_calls) == 96 and second.A1 is not first.A1
    _same_operators(second, first)
    assert _system(disc, "ex1-stokes").A1 is first.A1 and len(a_calls) == 96


def test_kept_operators_and_key_arrays_are_read_only(sweep_mesh):
    """No caller can write into an operator that other systems share, nor
    into an array of the key that it was built for."""
    disc = _maps(sweep_mesh, 3)
    mesh, _, projs, _ = disc
    system = _system(disc, "ex1-stokes")
    kept = [system.A1.data, system.B.data, system.B.indices, system.E.data, system.E.indptr,
            system.e, system.pressure_ints, system.dirichlet_mask, system.keep, system.order]
    key = [mesh.face_cells, mesh.face_stack.area, mesh.cell_stack.barycenter, projs[0].pi_d_dof,
           projs[0].pi_0grad, projs[-1].sigma, projs[-1].mono_int]
    for a in kept + key:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_operator_key_views_are_read_only(sweep_mesh):
    """The arrays behind the operator key cannot change under a kept key:
    the per-entity mesh views and the per-cell projection arrays are cut
    from read-only stacks, so a write through any of them raises.  (Every
    other test builds these views too; none of them writes through one.)"""
    mesh, projs, _ = sweep_mesh
    views = [mesh.faces[0], *mesh.cells[0], *mesh.face_edges[0], mesh.cell_vertices[0],
             mesh.cell_edges[0]]
    pr = projs[0]
    views += [pr.pi_d_dof.base, *(getattr(pr, name) for name in ("pi_d_dof", "pi_0grad", "pi_0k", "Hq",
                                                                 "div", "sigma", "mono_int", "rule_vals"))]
    for v in views:
        with pytest.raises(ValueError):
            v[(0,) * v.ndim] = 0
