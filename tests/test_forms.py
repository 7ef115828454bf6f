import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    cell_projection_loop,
    convective_form_oracle,
    extract_cells,
    local_b,
    local_dofs,
    local_load_loop,
    poly_field,
    strain_form_oracle,
)
from vemflow.dofspace import build_dof_maps, cell_basis, interpolate_velocity
from vemflow.forms import (
    ProblemSpec,
    assemble,
    assemble_convection,
    divergence_matrix,
    dump_matrix,
    local_a,
    local_convection,
    local_load,
    stabilization_weights,
)
from vemflow.meshing import generate_structured_cubes
from vemflow.polynomials import dim_poly
from vemflow.projection import build_projections


def _rigid_field(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    u = lambda p: a + np.cross(b, np.atleast_2d(p))
    div_u = lambda p: np.zeros(len(np.atleast_2d(p)))
    return u, div_u


@pytest.mark.parametrize("k", [2, 3])
def test_local_a_rigid_kernel(k, cube1, hex_cell, disc):
    for mesh in (cube1, hex_cell):
        maps, projs, fps = disc(mesh, k)
        mapv = maps[0]
        pr = projs[0]
        u, div_u = _rigid_field([0.3, -1.0, 2.0], [1.0, 0.5, -0.25])
        d = local_dofs(mapv, 0, interpolate_velocity(mesh, mapv, u, div_u))
        A = local_a(pr, 1.0)
        scale = np.max(np.abs(A)) * np.max(np.abs(d)) ** 2
        assert abs(d @ A @ d) < 1e-10 * scale


@pytest.mark.parametrize("k", [2, 3])
def test_local_a_polynomial_oracle(k, cube1, unit_tet, disc):
    """For polynomial arguments the discrete form equals nu int eps:eps
    computed by quadrature from analytic gradients."""
    nu = 1.7
    rng = np.random.default_rng(23)
    for mesh in (cube1, unit_tet):
        maps, projs, fps = disc(mesh, k)
        mapv = maps[0]
        pr = projs[0]
        basis = cell_basis(mesh, 0, k + 1)
        pk = dim_poly(k, 3)
        coef = np.zeros(3 * basis.n)
        for c in range(3):
            coef[c * basis.n: c * basis.n + pk] = rng.standard_normal(pk)
        u, grad_u, div_u = poly_field(basis, coef)
        d = local_dofs(mapv, 0, interpolate_velocity(mesh, mapv, u, div_u))
        A = local_a(pr, nu)
        got = d @ A @ d
        expected = strain_form_oracle(grad_u, grad_u, pr.rule, nu=nu)
        assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))


def test_local_a_nu_linearity(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    A1 = local_a(projs[0], 1.0)
    A2 = local_a(projs[0], 2.0)
    assert np.array_equal(A2, 2.0 * A1)


def test_local_a_unit_stabilization(cube1, cube2, unit_tet, disc):
    maps, projs, fps = disc(cube1, 2)
    A = local_a(projs[0], 1.0, stabilization="unit")
    assert np.all(np.isfinite(A))
    with pytest.raises(ValueError, match="unknown stabilization"):
        local_a(projs[0], 1.0, stabilization="bogus")

    # the 3D dofi-dofi recipe: S_P = h_P * sum_i dof_i((I - Pi^D) u) dof_i((I - Pi^D) v)
    for mesh in (cube1, unit_tet):
        pr = disc(mesh, 2)[1][0]
        Qd = np.eye(pr.ndof) - pr.pi_d_dof
        expected = pr.consistency + pr.h * Qd.T @ Qd
        assert np.allclose(local_a(pr, 1.0, "unit"), expected, rtol=1e-12, atol=1e-14)

    # both recipes carry the same h_P scaling: on congruent cubes the weight
    # ratio per vertex, edge and face DoF does not depend on the mesh size
    ratios = []
    for mesh in (cube1, cube2, generate_structured_cubes(4)):
        maps, projs, fps = disc(mesh, 2)
        pr, lay = projs[0], maps[0].layouts[0]
        sig_unit = stabilization_weights(pr, "unit")
        sig_d = stabilization_weights(pr, "drecipe")
        idx = np.concatenate([lay.vertex.ravel(), lay.edge.ravel(), lay.face.ravel()])
        ratios.append(sig_d[idx] / sig_unit[idx])
    for r in ratios[1:]:
        assert np.allclose(r, ratios[0], rtol=1e-8)


def test_stabilization_vanishes_on_polynomials(cube1, disc):
    """S contributes nothing when either argument is a [P_k]^3 DoF vector."""
    maps, projs, fps = disc(cube1, 2)
    pr = projs[0]
    rng = np.random.default_rng(29)
    coef = rng.standard_normal(3 * dim_poly(2, 3))
    d_poly = cell_projection_loop(cube1, maps[0], 0, fps).D @ coef
    A = local_a(pr, 1.0)
    d_any = rng.standard_normal(pr.ndof)
    consistency_only = d_any @ pr.consistency @ d_poly
    assert abs(d_any @ A @ d_poly - consistency_only) < 1e-10 * max(1.0, abs(consistency_only))


def _cell_b_rows(mesh, maps, c=0):
    """Cell c's rows of the closed-form B, on its local DoFs."""
    mapv, mapq = maps
    pq = mapq.n_per_cell
    return divergence_matrix(mesh, mapv)[c * pq: (c + 1) * pq][:, mapv.cell_global[c]].toarray()


def test_local_b_examples(cube1, unit_tet, disc):
    """The rows of B on one cell equal the projections' pairing (local_b)
    and pair interpolants with their divergence."""
    for mesh in (cube1, unit_tet):
        maps, projs, fps = disc(mesh, 2)
        mapv = maps[0]
        pr = projs[0]
        B = _cell_b_rows(mesh, maps)
        assert np.max(np.abs(B - local_b(pr))) <= 1e-12 * np.max(np.abs(B))
        # v from u = (x, 0, 0), q = 1 -> |P|
        u = lambda p: np.stack([np.atleast_2d(p)[:, 0], np.zeros(len(np.atleast_2d(p))), np.zeros(len(np.atleast_2d(p)))], axis=1)
        div_u = lambda p: np.ones(len(np.atleast_2d(p)))
        d = local_dofs(mapv, 0, interpolate_velocity(mesh, mapv, u, div_u))
        assert abs(B[0] @ d - pr.vol) < 1e-12
        # divergence-free polynomial -> zero column against all q
        u2 = lambda p: np.stack([np.atleast_2d(p)[:, 1], np.zeros(len(np.atleast_2d(p))), np.zeros(len(np.atleast_2d(p)))], axis=1)
        div2 = lambda p: np.zeros(len(np.atleast_2d(p)))
        d2 = local_dofs(mapv, 0, interpolate_velocity(mesh, mapv, u2, div2))
        assert np.max(np.abs(B @ d2)) < 1e-12


def test_local_b_matches_reconstruction_quadrature(cube1, disc):
    """B rows equal the quadrature of the reconstructed divergence times the
    pressure monomials for arbitrary DoF vectors, as the projections'
    pairing (local_b) does."""
    maps, projs, fps = disc(cube1, 2)
    pr = projs[0]
    rng = np.random.default_rng(31)
    d = rng.standard_normal(pr.ndof)
    B = _cell_b_rows(cube1, maps)
    pq = dim_poly(1, 3)
    phi = cell_basis(cube1, 0, 3).eval(pr.rule.points)[:, :pq]
    divvals = phi @ (pr.div @ d)
    direct = phi.T @ (pr.rule.weights * divvals)
    for got in (B @ d, local_b(pr) @ d):
        assert np.max(np.abs(got - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


def test_local_c_zero_cases(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    mapv = maps[0]
    pr = projs[0]
    C0 = local_convection([pr], np.zeros((1, pr.ndof)))[0][0]
    assert np.max(np.abs(C0)) == 0.0
    # u constant -> zero column (the projected gradient of u vanishes)
    u = lambda p: np.tile([1.0, 2.0, 3.0], (len(np.atleast_2d(p)), 1))
    div_u = lambda p: np.zeros(len(np.atleast_2d(p)))
    d_const = local_dofs(mapv, 0, interpolate_velocity(cube1, mapv, u, div_u))
    rng = np.random.default_rng(37)
    w = rng.standard_normal(pr.ndof)
    C = local_convection([pr], w[None])[0][0]
    assert np.max(np.abs(C @ d_const)) < 1e-12 * np.max(np.abs(C))


def test_local_c_polynomial_oracle(cube1, disc):
    """Trilinear form on polynomial w, u, v equals the quadrature oracle."""
    maps, projs, fps = disc(cube1, 2)
    mapv = maps[0]
    pr = projs[0]
    basis = cell_basis(cube1, 0, 3)
    pk = dim_poly(2, 3)
    rng = np.random.default_rng(41)
    fields = []
    dofs = []
    for _ in range(3):
        coef = np.zeros(3 * basis.n)
        for c in range(3):
            coef[c * basis.n: c * basis.n + pk] = rng.standard_normal(pk)
        u, g, dv = poly_field(basis, coef)
        fields.append((u, g))
        dofs.append(local_dofs(mapv, 0, interpolate_velocity(cube1, mapv, u, dv)))
    (w, _), (u, gu), (v, _) = fields
    dw, du, dv_ = dofs
    C = local_convection([pr], dw[None])[0][0]
    got = dv_ @ C @ du
    expected = convective_form_oracle(w, gu, v, pr.rule)
    assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))


def test_local_load_examples(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    mapv = maps[0]
    pr = projs[0]
    zero = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    assert np.max(np.abs(local_load(pr, zero))) == 0.0
    # f constant, v from constant field -> f . v |P|
    fconst = np.array([2.0, -1.0, 0.5])
    f = lambda p: np.tile(fconst, (len(np.atleast_2d(p)), 1))
    vconst = np.array([1.0, 1.0, 1.0])
    v = lambda p: np.tile(vconst, (len(np.atleast_2d(p)), 1))
    div_v = lambda p: np.zeros(len(np.atleast_2d(p)))
    d = local_dofs(mapv, 0, interpolate_velocity(cube1, mapv, v, div_v))
    got = local_load(pr, f) @ d
    assert abs(got - fconst @ vconst * pr.vol) < 1e-12
    # f polynomial, v polynomial -> exact integral
    rng = np.random.default_rng(43)
    basis = cell_basis(cube1, 0, 3)
    coef = np.zeros(3 * basis.n)
    pk = dim_poly(2, 3)
    for c in range(3):
        coef[c * basis.n: c * basis.n + pk] = rng.standard_normal(pk)
    fpoly, _, _ = poly_field(basis, coef)
    got2 = local_load(pr, fpoly) @ d
    exact = float(pr.rule.weights @ np.sum(fpoly(pr.rule.points) * v(pr.rule.points), axis=1))
    assert abs(got2 - exact) < 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("name,k", [("cube2", 2), ("tets2", 3)])
def test_load_matches_per_component_solves(name, k, request, disc):
    """The stacked (pk, 3) Hk solve of the cell load gives the assembled F of
    the three per-component solves to 1e-14 relative."""
    from vemflow.cases import make_case

    mesh = request.getfixturevalue(name)
    maps, projs, fps = disc(mesh, k)
    case = make_case("ex1-stokes", k=k)
    F = assemble(mesh, maps, ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k),
                 projs, fps).F
    want = np.zeros(maps[0].ndof)
    for ci, pr in enumerate(projs):
        want[maps[0].cell_global[ci]] += local_load_loop(pr, case.load)
    assert np.max(np.abs(F - want)) <= 1e-14 * np.max(np.abs(want))


def _zero_spec(k):
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    return ProblemSpec(nu=1.0, load=zero3, dirichlet=zero3, k=k)


def test_assemble_zero_data(cube2, disc):
    maps, projs, fps = disc(cube2, 2)
    system = assemble(cube2, maps, _zero_spec(2), projs, fps)
    assert np.max(np.abs(system.F)) == 0.0
    from vemflow.flow import solve_stokes

    sol = solve_stokes(system)
    assert np.max(np.abs(sol.u)) < 1e-14
    assert np.max(np.abs(sol.p)) < 1e-14


def test_assemble_shared_face_row_sum(disc):
    """Global A row for a shared-face DoF equals the sum of both local rows."""
    mesh = extract_cells(generate_structured_cubes(2), [0, 1])
    maps = build_dof_maps(mesh, 2)
    mapv = maps[0]
    projs, fps = build_projections(mesh, mapv)
    system = assemble(mesh, maps, _zero_spec(2), projs, fps)
    shared = np.nonzero(~mesh.boundary_face)[0]
    assert len(shared) == 1
    f = shared[0]
    gdof = mapv.offsets["face"] + 3 * mapv.n_face_moms * f
    row = system.A[gdof].toarray().ravel()
    acc = np.zeros(mapv.ndof)
    for ci in (0, 1):
        A_loc = local_a(projs[ci], 1.0)
        gl = mapv.cell_global[ci]
        pos = np.nonzero(gl == gdof)[0][0]
        acc[gl] += A_loc[pos]
    assert np.max(np.abs(row - acc)) < 1e-12 * max(1.0, np.max(np.abs(acc)))


def test_stokes_block_symmetric(cube2, disc):
    maps, projs, fps = disc(cube2, 2)
    system = assemble(cube2, maps, _zero_spec(2), projs, fps)
    asym = abs(system.A - system.A.T).max()
    assert asym < 1e-12 * abs(system.A).max()
    # velocity block positive definite on the free (non-Dirichlet) DoFs
    free = np.nonzero(~system.dirichlet_mask)[0]
    A_ff = system.A[free][:, free].toarray()
    w = np.linalg.eigvalsh(A_ff)
    assert w.min() > 0


def test_incompatible_dirichlet_rejected(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    u = lambda p: np.stack([np.atleast_2d(p)[:, 0], np.zeros(len(np.atleast_2d(p))), np.zeros(len(np.atleast_2d(p)))], axis=1)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    spec = ProblemSpec(nu=1.0, load=zero3, dirichlet=u, k=2)
    with pytest.raises(ValueError, match="incompatible Dirichlet"):
        assemble(cube1, maps, spec, projs, fps)


@pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_viscosity_rejected(nu, cube1, disc, monkeypatch):
    """A viscosity that is not finite and positive is refused before any
    cell is assembled: the solver's pressure unknown is p / nu."""
    import vemflow.forms as forms

    maps, projs, fps = disc(cube1, 2)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    monkeypatch.setattr(forms, "local_a", lambda *a, **kw: pytest.fail("assembly began"))
    with pytest.raises(ValueError, match="viscosity must be finite and > 0"):
        assemble(cube1, maps, ProblemSpec(nu=nu, load=zero3, dirichlet=zero3, k=2), projs, fps)


def test_spec_of_another_degree_rejected(cube1, disc, monkeypatch):
    """A problem posed at another degree than the DoF map's is refused before
    any cell is assembled, not solved at the map's degree."""
    import vemflow.forms as forms

    maps, projs, fps = disc(cube1, 2)
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    monkeypatch.setattr(forms, "local_a", lambda *a, **kw: pytest.fail("assembly began"))
    with pytest.raises(ValueError, match="posed at k = 3 but the DoF map has k = 2"):
        assemble(cube1, maps, ProblemSpec(nu=1.0, load=zero3, dirichlet=zero3, k=3), projs, fps)


@pytest.mark.parametrize("name,k", [("cube1", 2), ("tets2", 3)])
def test_assemble_convection_jacobian_fd(name, k, request, disc):
    """C(u) u is the convective residual; its Jacobian is C(u) + Cg(u)."""
    mesh = request.getfixturevalue(name)
    maps, projs, fps = disc(mesh, k)
    mapv = maps[0]
    rng = np.random.default_rng(47)
    u = rng.standard_normal(mapv.ndof)
    C, Cg = assemble_convection(mapv, projs, u)
    N = lambda w: assemble_convection(mapv, projs, w)[0] @ w
    J = (C + Cg).toarray()
    # N is quadratic in u, so the central difference is exact for any step;
    # a unit step keeps the 1/eps amplification of round-off out of the check
    eps = 1.0
    for j in rng.choice(mapv.ndof, 5, replace=False):
        dp = np.zeros(mapv.ndof)
        dp[j] = eps
        fd = (N(u + dp) - N(u - dp)) / (2 * eps)
        assert np.max(np.abs(fd - J[:, j])) < 1e-6 * max(1.0, np.max(np.abs(J[:, j])))


def test_infsup_proxy_monitor():
    """Smallest singular value of the scaled divergence pairing does not
    collapse across the structured family."""
    vals = []
    for n in (1, 2, 3):
        mesh = generate_structured_cubes(n)
        maps = build_dof_maps(mesh, 2)
        mapv, mapq = maps
        projs, fps = build_projections(mesh, mapv)
        system = assemble(mesh, maps, _zero_spec(2), projs, fps)
        B = system.B.toarray()
        d_a = np.sqrt(system.A.diagonal())
        d_a[d_a == 0] = 1.0
        # pressure mass diagonal per cell
        d_m = np.zeros(mapq.ndof)
        pq = mapq.n_per_cell
        for ci, pr in enumerate(projs):
            d_m[ci * pq: (ci + 1) * pq] = np.sqrt(np.diag(pr.Hq))
        Bs = (B / d_a[None, :]) / d_m[:, None]
        sv = np.linalg.svd(Bs, compute_uv=False)
        vals.append(sv[sv > 1e-12 * sv[0]].min())
    for a, b in zip(vals, vals[1:]):
        assert b >= 0.8 * a, vals


def test_dump_matrix(tmp_path, cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    system = assemble(cube1, maps, _zero_spec(2), projs, fps)
    path = tmp_path / "mat.txt"
    dump_matrix(system, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    names = {ln.split()[0] for ln in lines[1:]}
    assert names == {"A", "B"}
    a_entries = [ln for ln in lines if ln.startswith("A ")]
    assert len(a_entries) == system.A.nnz
