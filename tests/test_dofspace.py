import json

import numpy as np
import pytest

from helpers import cell_projection_loop, extract_cells, local_dofs, reduced_saving
from vemflow.dofspace import (
    build_dof_maps,
    build_reduced_maps,
    cell_basis,
    complex_dims,
    dof_summary,
    edge_point_params,
    interpolate_boundary,
    interpolate_velocity,
    nested_dissection,
)
from vemflow import dofspace
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.polynomials import dim_poly


def test_unsupported_degree(cube1):
    with pytest.raises(ValueError, match="unsupported degree"):
        build_dof_maps(cube1, 1)
    with pytest.raises(ValueError, match="unsupported degree"):
        build_dof_maps(cube1, 5)


def test_edge_points_gauss_lobatto():
    assert np.allclose(edge_point_params(2), [0.5])
    # interior nodes of the 4-point Gauss-Lobatto rule: +-1/sqrt(5) on [-1,1]
    p3 = np.array(edge_point_params(3))
    assert np.allclose(p3, np.array([-1, 1]) / np.sqrt(5.0) / 2 + 0.5)
    p4 = np.array(edge_point_params(4))
    assert np.allclose(p4, np.array([-np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0)]) / 2 + 0.5)


@pytest.mark.parametrize("k,dimv,dimq", [
    (2, 81, 4),            # 24 + 36 + 18 + 3
    (3, 162, 10),          # 24 + 72 + 54 + 12
    (4, 270, 20),          # 24 + 108 + 108 + 30
])
def test_cube_dimensions(cube1, k, dimv, dimq):
    mapv, mapq = build_dof_maps(cube1, k)
    assert mapv.ndof == dimv
    assert mapq.ndof == dimq
    lv, le, lf = 8, 12, 6
    assert mapv.ndof == 3 * lv + 3 * (k - 1) * le + 3 * dim_poly(k - 2, 2) * lf + 3 * dim_poly(k - 2, 3)


def test_cube_k3_family_split(cube1):
    # interior families: cross moments and divergence moments
    mapv, _ = build_dof_maps(cube1, 3)
    assert mapv.n_d4 == 3 * dim_poly(1, 3) - dim_poly(2, 3) + 1 == 3
    assert mapv.n_d5 == dim_poly(2, 3) - 1 == 9


def test_tet_k2_dimension(unit_tet):
    mapv, mapq = build_dof_maps(unit_tet, 2)
    assert mapv.ndof == 45          # 12 + 18 + 12 + 3
    assert mapq.ndof == 4


def test_global_count_formula(cube2, tets2):
    for mesh in (cube2, tets2):
        for k in (2, 3):
            mapv, mapq = build_dof_maps(mesh, k)
            expected = (3 * mesh.n_vertices + 3 * (k - 1) * mesh.n_edges
                        + 3 * dim_poly(k - 2, 2) * mesh.n_faces
                        + 3 * dim_poly(k - 2, 3) * mesh.n_cells)
            assert mapv.ndof == expected
            assert mapq.ndof == dim_poly(k - 1, 3) * mesh.n_cells


def test_shared_entities_numbered_once(cube2):
    mapv, _ = build_dof_maps(cube2, 2)
    seen = {}
    for ci, gl in enumerate(mapv.cell_global):
        lay = mapv.layouts[ci]
        assert len(gl) == lay.ndof
    union = np.unique(np.concatenate(mapv.cell_global))
    assert len(union) == mapv.ndof


def test_dirichlet_mask(cube2):
    mapv, _ = build_dof_maps(cube2, 2)
    # n=2: every vertex/edge/face except the interior ones is on the boundary
    assert mapv.dirichlet[: 3 * 27].sum() == 3 * 26          # one interior vertex
    assert not mapv.dirichlet[mapv.offsets["cell"]:].any()   # cell moments never Dirichlet


def test_interpolation_constant_field(cube1):
    mapv, _ = build_dof_maps(cube1, 2)
    u = lambda p: np.tile([1.0, 0.0, 0.0], (len(np.atleast_2d(p)), 1))
    div_u = lambda p: np.zeros(len(np.atleast_2d(p)))
    d = interpolate_velocity(cube1, mapv, u, div_u)
    lay = mapv.layouts[0]
    loc = local_dofs(mapv, 0, d)
    assert np.allclose(loc[lay.vertex[:, 0]], 1.0)
    assert np.allclose(loc[lay.vertex[:, 1:]], 0.0)
    assert np.allclose(loc[lay.edge[:, :, 0]], 1.0)
    assert np.allclose(loc[lay.d5], 0.0)


def test_interpolation_rotation_k3(cube1):
    """u = x /\\ e_z = (y, -x, 0): divergence-free, cross moment frozen from
    the closed-form integral (1/|P|) int u . ((x-x_B)/h /\\ e_z) = 1/(6 sqrt 3)."""
    mapv, _ = build_dof_maps(cube1, 3)
    u = lambda p: np.stack([p[:, 1], -p[:, 0], np.zeros(len(p))], axis=1)
    div_u = lambda p: np.zeros(len(np.atleast_2d(p)))
    d = interpolate_velocity(cube1, mapv, u, div_u)
    lay = mapv.layouts[0]
    loc = local_dofs(mapv, 0, d)
    assert np.allclose(loc[lay.d5], 0.0, atol=1e-14)
    # descriptor order of the cross fields: xhat/\e_x, xhat/\e_y, xhat/\e_z
    assert abs(loc[lay.d4][2] - 1.0 / (6.0 * np.sqrt(3.0))) < 1e-13
    assert np.allclose(loc[lay.d4][:2], 0.0, atol=1e-14)


def test_interpolation_requires_divergence(cube1):
    mapv, _ = build_dof_maps(cube1, 2)
    with pytest.raises(ValueError, match="div_u"):
        interpolate_velocity(cube1, mapv, lambda p: np.zeros((len(p), 3)))


def test_boundary_interpolation_matches_full(cube2):
    mapv, _ = build_dof_maps(cube2, 2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    u = lambda p: np.atleast_2d(p) @ A.T
    div_u = lambda p: np.full(len(np.atleast_2d(p)), np.trace(A))
    full = interpolate_velocity(cube2, mapv, u, div_u)
    bdry = interpolate_boundary(cube2, mapv, u)
    assert np.allclose(bdry[mapv.dirichlet], full[mapv.dirichlet], atol=1e-13)


@pytest.mark.parametrize("k", [2, 3])
def test_complex_dims_cube(cube1, k):
    dims = complex_dims(cube1, k)
    if k == 2:
        assert (dims.dim_W, dims.dim_Sigma, dims.dim_V, dims.dim_Q) == (8, 84, 81, 4)
        assert dims.dim_Z == 77
    assert dims.euler == 1
    assert dims.alternating_sum == 0


def test_complex_dims_alternating_identity(cube2, cube3, tets2):
    """1 - dimW + dimSigma - dimV + dimQ == 1 - (V - E + F - P) exactly."""
    for mesh in (cube2, cube3, tets2):
        for k in (2, 3, 4):
            dims = complex_dims(mesh, k)
            assert dims.alternating_sum == 1 - mesh.euler_number()
            assert dims.alternating_sum == 0    # contractible meshes


def test_complex_dims_noncontractible(cube3):
    ring = [i * 9 + j * 3 for i in range(3) for j in range(3) if not (i == 1 and j == 1)]
    torus = extract_cells(cube3, ring)
    dims = complex_dims(torus, 2)
    assert dims.euler == 0
    assert dims.alternating_sum == 1 - dims.euler


def test_reduced_maps(cube2):
    for k in (2, 3):
        maps = build_dof_maps(cube2, k)
        keep = build_reduced_maps(maps[0])
        pk1 = dim_poly(k - 1, 3)
        assert reduced_saving(keep, maps[1]) == (2 * pk1 - 2) * cube2.n_cells
        assert np.count_nonzero(keep) == maps[0].ndof - (pk1 - 1) * cube2.n_cells


def test_shared_face_dof_convention_agrees():
    """The two cells adjacent to a face evaluate every shared DoF functional
    identically: sampling a global polynomial through either cell's DoF-value
    matrix gives the same numbers on the shared entries."""
    from vemflow.projection import build_projections

    mesh = extract_cells(generate_structured_cubes(2), [0, 1])
    k = 2
    mapv, _ = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, mapv)
    rng = np.random.default_rng(12)
    # one global polynomial, expanded in each cell's own scaled basis
    pk = dim_poly(k, 3)
    from vemflow.polynomials import MonomialBasis3

    gbasis = MonomialBasis3(k, np.zeros(3), 1.0)
    gcoef = rng.standard_normal(3 * pk)
    vals = [None, None]
    for ci in (0, 1):
        pr = projs[ci]
        # re-expand: match values at the cell quadrature points (exact since
        # both bases span [P_k]^3)
        phi_local = cell_basis(mesh, ci, k + 1).eval(pr.rule.points)[:, :pk]
        phi_glob = gbasis.eval(pr.rule.points)
        coef_local = np.concatenate([
            np.linalg.lstsq(phi_local, phi_glob @ gcoef[c * pk: (c + 1) * pk], rcond=None)[0]
            for c in range(3)
        ])
        vals[ci] = (mapv.cell_global[ci], cell_projection_loop(mesh, mapv, ci, fps).D @ coef_local)
    g0, d0 = vals[0]
    g1, d1 = vals[1]
    shared, i0, i1 = np.intersect1d(g0, g1, return_indices=True)
    assert len(shared) > 0
    assert np.max(np.abs(d0[i0] - d1[i1])) < 1e-12 * max(1.0, np.max(np.abs(d0)))


def test_dof_summary_json(cube1):
    maps = build_dof_maps(cube1, 2)
    s = dof_summary(cube1, *maps)
    js = json.dumps(s)
    assert json.loads(js)["velocity"]["total"] == 81
    fam = s["velocity"]["per_family"]
    assert sum(fam.values()) == 81


def _cell_order(mesh):
    """The cells in nested-dissection order, one unknown per cell."""
    cells = np.arange(mesh.n_cells)
    return np.argsort(nested_dissection(mesh.cell_stack.barycenter, cells, cells, mesh.n_cells),
                      kind="stable")


def test_nested_dissection_keeps_layers_whole(monkeypatch):
    """On 3^3 cubes, whose barycentres of one layer differ by round-off
    (1e-17), the first cut falls between two layers across the longest
    axis, the first of the two gaps nearest the median, 9 cells before it
    and 18 after: a cut at the median cell would split the middle layer,
    13 against 14, and so it does when round-off counts as a gap."""
    mesh = generate_structured_cubes(3)
    centres = mesh.cell_stack.barycenter
    x = centres[:, np.argmax(np.ptp(centres, axis=0))]
    assert np.ptp(x[np.abs(x - x.min()) < 1e-9]) > 0      # one layer, not one value
    layer = np.round(x * 3 - 0.5).astype(int)
    assert np.array_equal(layer[_cell_order(mesh)[:9]], [0] * 9)
    monkeypatch.setattr(dofspace, "LAYER_TOL", 0.0)
    assert set(layer[_cell_order(mesh)[:13]]) == {0, 1}


def test_nested_dissection_on_distinct_coordinates_cuts_at_the_median():
    """Where no two barycentres share a coordinate the gap nearest the
    median is the median: a jittered tetra mesh's order is the median
    split's, cut by cut."""
    mesh = generate_tetra_mesh(2, seed=5)
    centres = mesh.cell_stack.barycenter
    order = _cell_order(mesh)
    # the median split's first cut: the lower half along the longest axis
    axis = np.argmax(np.ptp(centres, axis=0))
    lower = np.argsort(centres[:, axis], kind="stable")[: mesh.n_cells // 2]
    assert set(order[: mesh.n_cells // 2]) == set(lower)
