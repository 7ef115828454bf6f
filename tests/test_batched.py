"""The batched geometry, face-rule, face-projection, cell-projection,
boundary-interpolation and case-field kernels against the per-entity loops
of helpers.py, on jittered tetrahedra, cubes, a distorted hexahedron, a
truncated octahedron and a mesh mixing hexahedra and pyramids, at
k = 2, 3, 4.  The bounds were fixed before the first run: geometry, rules
and basis values 1e-14 relative, l2 1e-9, every cell projection array
1e-10 relative to its largest entry, and the Stokes and Navier-Stokes
solutions from either set of projections 1e-9."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    cell_mass,
    cell_moments,
    cell_projection_loop,
    cell_quadrature_loop,
    cube_and_pyramids,
    extract_cells,
    face_projections_loop,
    face_quadrature_loop,
    geometry_loop,
    interpolate_boundary_loop,
    per_entry_case_fields,
    single_distorted_hex,
    truncated_octahedron_cell,
)
from vemflow import polynomials, projection
from vemflow import quadrature as quad
from vemflow.bench import error_h1_velocity, error_l2_pressure
from vemflow.cases import CASE_NAMES, make_case, x_plane_neumann
from vemflow.derham import check_divfree
from vemflow.dofspace import build_dof_maps, cell_basis
from vemflow.flow import NSOptions, solve_navier_stokes, solve_stokes
from vemflow.forms import ProblemSpec, assemble
from vemflow.meshing import (
    generate_structured_cubes,
    generate_tetra_mesh,
)
from vemflow.projection import build_cell_projection, build_projections


def _jittered_tets(seed: int, jitter: float):
    # the six Kuhn tets around the box at the origin, whose other grid
    # points all move under the jitter
    return extract_cells(generate_tetra_mesh(2, jitter=jitter, seed=seed), range(6))


_RNG = np.random.default_rng(20261019)
MESHES = {
    **{f"tets-{s}": (lambda s=s, j=j: _jittered_tets(s, j))
       for s, j in zip(_RNG.integers(2**16, size=3).tolist(), [0.0, 0.25, 0.17])},
    "cubes2": lambda: generate_structured_cubes(2),
    "hex": single_distorted_hex,
    "octahedron": truncated_octahedron_cell,
    "mixed": cube_and_pyramids,
}


@lru_cache(maxsize=None)
def _mesh(name: str):
    return MESHES[name]()


@lru_cache(maxsize=None)
def _disc(name: str, k: int):
    mesh = _mesh(name)
    maps = build_dof_maps(mesh, k)
    return maps, *build_projections(mesh, maps[0])


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("name", MESHES)
def test_geometry_matches_loop(name):
    mesh = _mesh(name)
    faces, cells = geometry_loop(mesh)
    for got, want in ((mesh.face_stack, faces), (mesh.cell_stack, cells)):
        for field in dataclasses.fields(got):
            assert _rel(getattr(got, field.name), [getattr(g, field.name) for g in want]) <= 1e-14, field.name


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", MESHES)
def test_face_and_cell_rules_match_loop(name, k):
    mesh = _mesh(name)
    deg = 2 * k + 2
    for faces in mesh.face_groups():
        pts2, pts3, w = quad.face_quadrature(mesh, faces, deg)
        for i, f in enumerate(faces):
            for got, want in zip((pts2[i], pts3[i], w[i]), face_quadrature_loop(mesh, f, deg)):
                assert _rel(got, want) <= 1e-14
    for c in range(mesh.n_cells):
        got, want = quad.cell_quadrature(mesh, c, deg), cell_quadrature_loop(mesh, c, deg)
        assert _rel(got.points, want.points) <= 1e-14
        assert _rel(got.weights, want.weights) <= 1e-14


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", MESHES)
def test_face_projections_match_loop(name, k):
    mesh = _mesh(name)
    (mapv, _), _, fps = _disc(name, k)
    for f, fp in fps.items():
        ref = face_projections_loop(mesh, f, k, mapv.edge_points)
        for field in ("pts3", "w", "vals"):
            assert _rel(getattr(fp, field), getattr(ref, field)) <= 1e-14, field
        assert _rel(fp.l2, ref.l2) <= 1e-9


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", MESHES)
def test_stokes_from_loop_face_projections(name, k):
    """The whole Stokes solve, once on the batched face projections and once
    on cell projections built from the per-face oracle's."""
    mesh = _mesh(name)
    maps, projs, fps = _disc(name, k)
    mapv = maps[0]
    fps_loop = {f: face_projections_loop(mesh, f, k, mapv.edge_points) for f in range(mesh.n_faces)}
    by_cell = {c: pr for g in mapv.groups
               for c, pr in zip(g.cells.tolist(), build_cell_projection(mesh, mapv, g, fps_loop))}
    projs_loop = [by_cell[c] for c in range(mesh.n_cells)]
    case = make_case("ex3-p1", k=k)
    spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k)
    sols = [solve_stokes(assemble(mesh, maps, spec, pr, fp_set))
            for pr, fp_set in ((projs, fps), (projs_loop, fps_loop))]
    assert _rel(sols[0].u, sols[1].u) <= 1e-9
    assert _rel(sols[0].p, sols[1].p) <= 1e-9
    for sol, pr in zip(sols, (projs, projs_loop)):
        assert check_divfree(sol.u, mesh, mapv, pr) <= 1e-9


CELL_FIELDS = ("mono_int", "div", "pi_d_dof", "pi_0k", "pi_0grad", "consistency", "sigma", "rule_vals")


def assert_class_rule(mesh, projs, c: int, rep: int, own) -> None:
    """Cell c's rule against the rule `own` that quadrature makes for it and
    against that of rep, the first cell of its class of translates.  A
    representative keeps its own rule bit for bit.  A member's points are
    the representative's plus the shift of its barycentre, bit for bit, and
    its weights are the representative's array; against its own rule they
    agree to TRANSLATE_RTOL h and 1e-12 relative."""
    rule = projs[c].rule
    if c == rep:
        assert np.array_equal(rule.points, own.points) and np.array_equal(rule.weights, own.weights)
        return
    xb = mesh.cell_stack.barycenter
    assert np.array_equal(rule.points, projs[rep].rule.points + (xb[c] - xb[rep]))
    assert rule.weights is projs[rep].rule.weights
    assert np.max(np.abs(rule.points - own.points)) <= projection.TRANSLATE_RTOL * projs[c].h
    assert _rel(rule.weights, own.weights) <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", MESHES)
def test_cell_projections_match_loop(name, k):
    mesh = _mesh(name)
    (mapv, _), projs, fps = _disc(name, k)
    reps = {}
    for c, pr in enumerate(projs):
        ref = cell_projection_loop(mesh, mapv, c, fps)
        assert (c, pr.ndof, pr.h, pr.vol) == (ref.c, ref.ndof, ref.h, ref.vol)
        assert_class_rule(mesh, projs, c, reps.setdefault(id(pr.pi_0k), c), ref.rule)
        for field in CELL_FIELDS:
            assert _rel(getattr(pr, field), getattr(ref, field)) <= 1e-10, (c, field)
        assert _rel(cell_mass(pr), ref.Hk) <= 1e-10, (c, "Hk")
        assert _rel(cell_moments(pr), cell_moments(ref)) <= 1e-10, (c, "moments")


def test_rule_vals_are_the_basis_at_the_rule():
    _, projs, _ = _disc("mixed", 3)
    for c, pr in enumerate(projs):
        basis = cell_basis(_mesh("mixed"), c, 4)
        assert np.array_equal(pr.rule_vals, basis.eval(pr.rule.points)[:, :polynomials.dim_poly(3, 3)])


@pytest.mark.parametrize("name", ["cubes2", "mixed", *[n for n in MESHES if n.startswith("tets")]])
def test_cell_groups_partition_the_cells(name):
    mesh = _mesh(name)
    groups = mesh.cell_groups()
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(mesh.n_cells))
    for cells in groups:
        assert np.all(np.diff(cells) > 0)
        layouts = {tuple(len(mesh.faces[f]) for f in mesh.cells[c][0]) for c in cells}
        assert len(layouts) == 1
    assert len(groups) == (2 if name == "mixed" else 1)
    assert len(generate_tetra_mesh(2, jitter=0.2, seed=1).cell_groups()) == 1


def _solutions_agree(mesh, mapv, sols, projs_pair):
    assert _rel(sols[0].u, sols[1].u) <= 1e-9
    assert _rel(sols[0].p, sols[1].p) <= 1e-9
    for sol, pr in zip(sols, projs_pair):
        assert check_divfree(sol.u, mesh, mapv, pr) <= 1e-9


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", MESHES)
def test_stokes_from_loop_cell_projections(name, k):
    """The Stokes solve, once on the batched cell projections and once on
    the per-cell oracle's."""
    mesh = _mesh(name)
    maps, projs, fps = _disc(name, k)
    projs_loop = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
    case = make_case("ex3-p1", k=k)
    spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k)
    sols = [solve_stokes(assemble(mesh, maps, spec, pr, fps)) for pr in (projs, projs_loop)]
    _solutions_agree(mesh, maps[0], sols, (projs, projs_loop))


_NS_SEED = int(_RNG.integers(2**16))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", ["cubes2", "mixed", f"tets-n2-{_NS_SEED}"])
def test_navier_stokes_from_loop_cell_projections(name, k):
    """The ex2-ns Newton solve, once on the batched cell projections and
    once on the per-cell oracle's, with equal Newton counts.  Its meshes
    fill the unit cube: on the others the interpolated boundary data of
    ex2-ns carry a flux of 1e-9 to 3e-8, which assemble rejects.  The
    tolerance sits above the round-off floor of the increments (at k = 4 on
    the jittered tetrahedra their third increment is 2e-7 to 5e-7, about
    1e-10 of the iterate), so that the count is the iteration's, not the
    round-off's."""
    mesh = _mesh(name) if name in MESHES else generate_tetra_mesh(2, jitter=0.2, seed=_NS_SEED)
    maps = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, maps[0])
    projs_loop = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
    case = make_case("ex2-ns", k=k)
    spec = ProblemSpec(nu=case.nu, load=case.load, dirichlet=case.velocity, k=k, convective=True)
    sols = [solve_navier_stokes(mesh, maps, spec, pr, fps, NSOptions(tol=1e-8)) for pr in (projs, projs_loop)]
    assert sols[0].converged and sols[0].newton_iterations == sols[1].newton_iterations
    _solutions_agree(mesh, maps[0], sols, (projs, projs_loop))


@pytest.mark.parametrize("mesh_name,k,neumann", [
    ("cube2", 2, False), ("cube2", 2, True), ("cube2", 3, True), ("tets2", 3, False),
])
def test_interpolate_boundary_matches_loop(mesh_name, k, neumann, cube2, tets2, disc):
    """The Dirichlet values of an assembled system against the entity-by-
    entity interpolation, with and without Neumann faces on x = 0, 1."""
    mesh = {"cube2": cube2, "tets2": tets2}[mesh_name]
    maps, projs, fps = disc(mesh, k)
    case = make_case("ex1-stokes", k=k)
    spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k,
                       neumann_faces=x_plane_neumann if neumann else None,
                       traction=case.traction if neumann else None)
    system = assemble(mesh, maps, spec, projs, fps)
    want = interpolate_boundary_loop(mesh, maps[0], case.velocity)
    want[~system.dirichlet_mask] = 0.0
    assert _rel(system.dirichlet_values, want) <= 1e-14


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_fields_match_per_entry_lambdas(name, k):
    rng = np.random.default_rng([k, CASE_NAMES.index(name)])
    pts = rng.uniform(0.0, 1.0, (200, 3))
    normal = rng.standard_normal(3)
    normal /= np.linalg.norm(normal)
    case = make_case(name, k=k, nu=0.3)
    ref = per_entry_case_fields(name, k, 0.3)
    for field in ("velocity", "grad_velocity", "pressure", "load"):
        got = getattr(case, field)(pts)
        assert got.dtype == float
        assert _rel(got, ref[field](pts)) <= 1e-14, field
    assert _rel(case.traction(pts, normal), ref["traction"](pts, normal)) <= 1e-14


def _count_calls(monkeypatch, owner, attr) -> list:
    calls = []
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("name,groups", [
    ("cubes3", 1), ("tets", 1), ("mixed", 2),
])
def test_face_kernels_run_once_per_group(name, groups, monkeypatch):
    """Deterministic guard on the batched face and cell layers:
    build_projections calls the face kernel once per group of equal vertex
    count and the cell kernel once per group of one face layout (the same
    number of groups on these meshes), and evaluates the basis once per
    cell (for the monomial integrals) plus a fixed number of times, not once
    or more per face."""
    mesh = {"cubes3": lambda: generate_structured_cubes(3), "tets": lambda: generate_tetra_mesh(2, seed=5),
            "mixed": cube_and_pyramids}[name]()
    mapv = build_dof_maps(mesh, 2)[0]
    kernel = _count_calls(monkeypatch, projection, "build_face_projections")
    cell_kernel = _count_calls(monkeypatch, projection, "build_cell_projection")
    evals = _count_calls(monkeypatch, polynomials._MonomialBasis, "eval")
    build_projections(mesh, mapv)
    assert len(kernel) == groups
    assert len(cell_kernel) == groups == len(mesh.cell_groups())
    assert len(evals) <= mesh.n_cells + 16


def test_assembly_and_errors_evaluate_no_basis_per_cell(monkeypatch):
    """assemble and both error norms on a prebuilt Stokes discretisation
    read the kept rule values: their basis evaluations do not grow with the
    number of cells."""
    counts = []
    for n in (2, 3):
        mesh = generate_structured_cubes(n)
        maps = build_dof_maps(mesh, 2)
        projs, fps = build_projections(mesh, maps[0])
        case = make_case("ex1-stokes", k=2)
        spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=2)
        u = np.zeros(maps[0].ndof)
        p = np.zeros(maps[1].ndof)
        with monkeypatch.context() as m:
            evals = _count_calls(m, polynomials._MonomialBasis, "eval")
            assemble(mesh, maps, spec, projs, fps)
            error_h1_velocity(u, case, mesh, maps[0], projs)
            error_l2_pressure(p, case, mesh, maps[1], projs)
        counts.append(len(evals))
    assert counts[0] == counts[1]
