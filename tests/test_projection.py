import numpy as np
import pytest

from helpers import (
    _index_lookup,
    cell_h1_projection,
    cell_mass,
    cell_moments,
    cell_projection_loop,
    face_basis,
    face_row,
    face_extraction_loop,
    face_h1_projection,
    face_projections_loop,
    local_dofs,
    mass_from_integrals_loop,
    poly_field,
)
from vemflow import quadrature as quad
from vemflow.dofspace import build_dof_maps, cell_basis, interpolate_velocity
from vemflow.polynomials import decomp_basis, dim_poly, multi_indices, product_positions
from vemflow.projection import (
    build_face_projections,
    build_projections,
    cell_integral_degree,
    face_extraction,
)


def _interp_local(mesh, mapv, ci, u, div_u):
    return local_dofs(mapv, ci, interpolate_velocity(mesh, mapv, u, div_u))


@pytest.mark.parametrize("k", [2, 3])
def test_reproduction_all_projectors(k, cube1, unit_tet, hex_cell, voronoi_cell, disc):
    """Every projector returns q exactly for DoF vectors sampled from
    q in [P_k]^3, Pi^D on the DoFs returns their vector, and it is
    idempotent.  D and pi_d are the per-cell oracle's."""
    rng = np.random.default_rng(11)
    for mesh in (cube1, unit_tet, hex_cell, voronoi_cell):
        maps, projs, fps = disc(mesh, k)
        mapv = maps[0]
        pr, ref = projs[0], cell_projection_loop(mesh, mapv, 0, fps)
        pk = dim_poly(k, 3)
        coef = np.concatenate([rng.standard_normal(pk) for _ in range(3)])
        d = ref.D @ coef
        for M in (ref.pi_d, pr.pi_0k, cell_h1_projection(mesh, mapv, 0, pr, fps)):
            assert np.max(np.abs(M @ d - coef)) < 1e-10
        P = pr.pi_d_dof
        assert np.max(np.abs(P @ d - d)) < 1e-10
        assert np.max(np.abs(P @ P - P)) < 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_interpolation_round_trip(k, cube1, hex_cell, disc):
    """Interpolating a polynomial and projecting returns it exactly."""
    rng = np.random.default_rng(3)
    for mesh in (cube1, hex_cell):
        maps, projs, fps = disc(mesh, k)
        mapv = maps[0]
        pr = projs[0]
        pk = dim_poly(k, 3)
        basis = cell_basis(mesh, 0, k + 1)
        coef = np.zeros(3 * basis.n)
        for c in range(3):
            coef[c * basis.n: c * basis.n + pk] = rng.standard_normal(pk)
        u, grad_u, div_u = poly_field(basis, coef)
        d = _interp_local(mesh, mapv, 0, u, div_u)
        got = cell_h1_projection(mesh, mapv, 0, pr, fps) @ d
        expected = np.concatenate([coef[c * basis.n: c * basis.n + pk] for c in range(3)])
        assert np.max(np.abs(got - expected)) < 1e-10


def test_face_projection_reproduces_polynomials(cube1, voronoi_cell):
    from helpers import face_poly_dofs

    for mesh in (cube1, voronoi_cell):
        for k in (2, 3):
            mapv, _ = build_dof_maps(mesh, k)
            rng = np.random.default_rng(5)
            for f in range(0, mesh.n_faces, max(1, mesh.n_faces // 3)):
                (fp,) = build_face_projections(mesh, [f], k, mapv.edge_points)
                npk = dim_poly(k, 2)
                coef = rng.standard_normal(npk)
                d = face_poly_dofs(mesh, mapv, f, coef)
                dproj = face_projections_loop(mesh, f, k, mapv.edge_points).dproj
                for M in (face_h1_projection(mesh, f, k, mapv.edge_points), dproj):
                    assert np.max(np.abs(M @ d - coef)) < 1e-10
                # the L2 projection of degree k+1 also returns the polynomial
                got = fp.l2 @ d
                assert np.max(np.abs(got[:npk] - coef)) < 1e-9
                assert np.max(np.abs(got[npk:])) < 1e-9


def test_face_constant_projection(cube1):
    mapv, _ = build_dof_maps(cube1, 2)
    (fp,) = build_face_projections(cube1, [0], 2, mapv.edge_points)
    d = np.ones(fp.l2.shape[1])
    d[-1] = 1.0   # the constant's scaled moment: (1/|f|) int 1 = 1
    got = fp.l2 @ d
    expected = np.zeros(dim_poly(3, 2))
    expected[0] = 1.0
    assert np.max(np.abs(got - expected)) < 1e-12


def test_face_l2_low_moment_preserved(cube1):
    """Degree <= k-2 moments of the enhanced face projection match the input
    DoF moments exactly, for any (virtual) DoF vector."""
    k = 2
    mapv, _ = build_dof_maps(cube1, k)
    (fp,) = build_face_projections(cube1, [0], k, mapv.edge_points)
    rng = np.random.default_rng(7)
    g = face_row(cube1, 0)
    (pts2,), _, _ = quad.face_quadrature(cube1, [0], 2 * k + 2)
    phi = face_basis(cube1, 0, k + 1).eval(pts2)
    for _ in range(5):
        d = rng.standard_normal(fp.l2.shape[1])
        proj_vals = phi @ (fp.l2 @ d)
        mom = float(fp.w @ proj_vals) / g.area
        assert abs(mom - d[-1]) < 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_orthogonality_residuals_random_vectors(k, cube1, voronoi_cell, disc):
    """The computed projections satisfy their defining linear systems on
    random DoF vectors."""
    rng = np.random.default_rng(13)
    for mesh in (cube1, voronoi_cell):
        maps, projs, fps = disc(mesh, k)
        pr = projs[0]
        pk = dim_poly(k, 3)
        d = rng.standard_normal(pr.ndof)
        # L2 projection: mass @ coeffs == moments
        for c in range(3):
            lhs = cell_mass(pr) @ (pr.pi_0k[c * pk: (c + 1) * pk] @ d)
            rhs = cell_moments(pr)[c * pk: (c + 1) * pk] @ d
            rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-30)
            assert rel < 1e-10
        # DoF projection: normal equations D^T D pi_d d = D^T d, with the
        # per-cell oracle's D, i.e. D^T Pi^D d = D^T d
        D = cell_projection_loop(mesh, maps[0], 0, fps).D
        lhs = D.T @ (pr.pi_d_dof @ d)
        rhs = D.T @ d
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_moments_match_quadrature_for_polynomials(cube1, hex_cell, disc):
    """Oracle equivalence: on genuinely polynomial DoF vectors the computed
    interior moments equal direct quadrature of the field."""
    k = 2
    rng = np.random.default_rng(17)
    for mesh in (cube1, hex_cell):
        maps, projs, fps = disc(mesh, k)
        mapv = maps[0]
        pr = projs[0]
        pk = dim_poly(k, 3)
        basis = cell_basis(mesh, 0, k + 1)
        coef = np.zeros(3 * basis.n)
        for c in range(3):
            coef[c * basis.n: c * basis.n + pk] = rng.standard_normal(pk)
        u, grad_u, div_u = poly_field(basis, coef)
        d = _interp_local(mesh, mapv, 0, u, div_u)
        got = cell_moments(pr) @ d
        rule = pr.rule
        phi = basis.eval(rule.points)[:, :pk]
        uvals = u(rule.points)
        for c in range(3):
            direct = phi.T @ (rule.weights * uvals[:, c])
            rel = np.max(np.abs(got[c * pk: (c + 1) * pk] - direct))
            assert rel < 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_unit_d4_dof_moment(cube1, disc):
    """A DoF vector with a single cross-moment entry has zero gradient-part
    moments and the matching scaled cross moment."""
    k = 3
    maps, projs, fps = disc(cube1, k)
    mapv = maps[0]
    pr = projs[0]
    lay = mapv.layouts[0]
    from vemflow.polynomials import decomp_basis

    dec = decomp_basis(k)
    d = np.zeros(pr.ndof)
    d[lay.d4[0]] = 1.0
    adapted = dec.T.T @ (cell_moments(pr) @ d)
    gsl, losl, hisl = dec.slices
    assert np.max(np.abs(adapted[gsl])) < 1e-12
    expected = np.zeros(dec.n_cross_low)
    expected[0] = pr.vol
    assert np.max(np.abs(adapted[losl] - expected)) < 1e-12


def test_divergence_reconstruction_consistency(cube2, tets2, disc):
    """The constant divergence mode equals the boundary flux of the analytic
    field computed by quadrature."""
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3, 3))
    u = lambda p: np.atleast_2d(p) @ A.T
    div_u = lambda p: np.full(len(np.atleast_2d(p)), np.trace(A))
    for mesh in (cube2, tets2):
        maps, projs, fps = disc(mesh, 2)
        mapv = maps[0]
        d = interpolate_velocity(mesh, mapv, u, div_u)
        for ci in (0, mesh.n_cells - 1):
            pr = projs[ci]
            coef = pr.div @ local_dofs(mapv, ci, d)
            flux = 0.0
            for f, s in zip(*mesh.cells[ci]):
                _, (pts3,), (w,) = quad.face_quadrature(mesh, [f], 4)
                nrm = mesh.face_stack.normal[f]
                flux += s * float(w @ (u(pts3) @ nrm))
            mean_div = flux / pr.vol
            # constant coefficient equals the mean divergence (zero-mean
            # monomials vanish only approximately; compare reconstructed means)
            pq = dim_poly(1, 3)
            mean_rec = float(pr.mono_int[:pq] @ coef) / pr.vol
            assert abs(mean_rec - mean_div) < 1e-10 * max(1.0, abs(mean_div))
            assert abs(mean_div - np.trace(A)) < 1e-10 * max(1.0, abs(np.trace(A)))


def test_dof_projection_condition_reported(cube1, disc):
    maps, _, fps = disc(cube1, 2)
    D = cell_projection_loop(cube1, maps[0], 0, fps).D
    cond = np.linalg.cond(D.T @ D)
    print(f"\ncond(D^T D) on the unit cube at k=2: {cond:.6e}")
    assert np.isfinite(cond)
    assert cond > 1.0


def test_rank_deficient_face_raises(cube1):
    from vemflow.meshing import PolyMesh

    # a degenerate sliver face would make the DoF system rank-deficient;
    # nearly-collinear loop vertices trigger the guard
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [2, 0, 1e-13], [0, 1e-13, 0],
        [0, 0, 1], [1, 0, 1], [2, 0, 1 + 1e-13], [0, 1e-13, 1],
    ], dtype=float)
    with pytest.raises(Exception):
        mesh = PolyMesh(
            verts,
            [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]],
            [[1, 2, 3, 4, 5, 6]],
        )
        mapv, _ = build_dof_maps(mesh, 2)
        build_projections(mesh, mapv)


def _mass_sets(k: int, dim: int):
    """(integral degree, [(rows, cols)]) of every Gram gather build_* makes."""
    if dim == 2:
        a_k, a_k1 = multi_indices(k, 2), multi_indices(k + 1, 2)
        n_mom = dim_poly(k - 2, 2)
        return 2 * (k + 1), [(a_k[:n_mom], a_k), (a_k1[n_mom:], a_k), (a_k1, a_k1)]
    a_k, a_q, a_k1 = multi_indices(k, 3), multi_indices(k - 1, 3), multi_indices(k + 1, 3)
    return cell_integral_degree(k), [(a_k, a_k), (a_q, a_k1), (decomp_basis(k).grad_sources, a_q)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_mass_gather_matches_loop(k, dim, seed):
    """The cached index gather gives exactly the pairwise loop's Gram matrices."""
    degree, sets = _mass_sets(k, dim)
    ints = np.random.default_rng([seed, k, dim]).standard_normal(dim_poly(degree, dim))
    for rows, cols in sets:
        got = ints[..., product_positions(degree, dim, rows, cols)]
        ref = mass_from_integrals_loop(ints, _index_lookup(degree, dim), rows, cols)
        assert got.shape == (len(rows), len(cols))
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_face_values_match_fresh_evaluation(k, cube1, voronoi_cell):
    """The stored face basis values are exactly a fresh evaluation, and their
    leading columns exactly the degree k-2 moment basis."""
    for mesh in (cube1, voronoi_cell):
        mapv, _ = build_dof_maps(mesh, k)
        for f in range(mesh.n_faces):
            (fp,) = build_face_projections(mesh, [f], k, mapv.edge_points)
            (pts2,), _, _ = quad.face_quadrature(mesh, [f], 2 * k + 2)
            assert np.array_equal(fp.vals, face_basis(mesh, f, k + 1).eval(pts2))
            n_mom = dim_poly(k - 2, 2)
            assert np.array_equal(fp.vals[:, :n_mom], face_basis(mesh, f, k - 2).eval(pts2))


@pytest.mark.parametrize("k", [2, 3])
def test_face_extraction_matches_loop(k, cube1, unit_tet, hex_cell, voronoi_cell, tets2, disc):
    """The column gather equals fp.l2 times the loop-built selection matrix,
    bit for bit, on every face of every cell."""
    for mesh in (cube1, unit_tet, hex_cell, voronoi_cell, tets2):
        maps, projs, fps = disc(mesh, k)
        for ci in range(mesh.n_cells):
            for fi_loc, f in enumerate(mesh.cells[ci][0]):
                got = face_extraction(mesh, maps[0], ci, fi_loc, fps[f])
                for c in range(3):
                    want = fps[f].l2 @ face_extraction_loop(mesh, maps[0], ci, fi_loc, c)
                    assert np.array_equal(got[c], want)
