import numpy as np
import pytest
import scipy.sparse as sp

from helpers import DENSE_DOF_CAP, assemble_divergence, cube_and_pyramids, extract_cells, scaled_mesh, svd_rank
from vemflow import derham, forms, projection
from vemflow.cases import make_case
from vemflow.derham import (
    certified_rank,
    check_div_surjectivity,
    check_divfree,
    check_exactness_dims,
)
from vemflow.dofspace import complex_dims, interpolate_velocity
from vemflow.flow import solve_stokes
from vemflow.forms import ProblemSpec, assemble
from vemflow.meshing import generate_structured_cubes


@pytest.fixture(scope="module")
def two_cell():
    return extract_cells(generate_structured_cubes(2), [0, 1])


@pytest.fixture(scope="module")
def torus(cube3):
    """Eight cubes of one layer of 3^3 around the middle column: Euler number 0."""
    return extract_cells(cube3, [i * 9 + j * 3 for i in range(3) for j in range(3) if not (i == 1 and j == 1)])


@pytest.fixture(scope="module")
def hex_and_pyramids():
    return cube_and_pyramids()


@pytest.mark.parametrize("k", [2, 3])
def test_exactness_dims(k, cube1, cube3, tets2):
    for mesh in (cube1, cube3, tets2):
        rep = check_exactness_dims(mesh, k)
        assert rep.exactness_applicable
        assert rep.exactness_ok
        assert rep.dims.alternating_sum == 0


def test_exactness_guard_noncontractible(torus):
    rep = check_exactness_dims(torus, 2)
    assert not rep.exactness_applicable
    assert rep.exactness_ok is None
    assert any("Euler" in note for note in rep.notes)


def test_div_surjectivity_noncontractible(torus):
    """The rank check does not need a contractible mesh: on the ring (Euler
    number 0) B is still onto Q_h, with the frozen values of the SVD."""
    rep = check_div_surjectivity(torus, 2)
    assert rep.dims.euler == 0 and not rep.exactness_applicable
    assert (rep.rank.rank, rep.rank.kernel_dim) == (32, 400)
    assert rep.rank.passed


@pytest.mark.parametrize("k", [2, 3])
def test_div_surjectivity(k, cube1, unit_tet, two_cell):
    for mesh in (cube1, unit_tet, two_cell):
        rep = check_div_surjectivity(mesh, k)
        assert rep.rank is not None and rep.rank.passed
        assert rep.rank.rank == rep.dims.dim_Q
        assert rep.rank.kernel_dim == rep.dims.dim_Z


def test_div_surjectivity_frozen_values(cube1, unit_tet, two_cell):
    r = check_div_surjectivity(cube1, 2).rank
    assert (r.rank, r.kernel_dim) == (4, 77)
    r = check_div_surjectivity(unit_tet, 2).rank
    assert (r.rank, r.kernel_dim) == (4, 41)
    r = check_div_surjectivity(two_cell, 2).rank
    assert r.rank == 8


def test_div_surjectivity_builds_no_projections(cube1, unit_tet, two_cell, monkeypatch):
    """B comes from the DoF map in closed form: the rank check builds no
    face or cell projection, and the frozen ranks hold without them."""
    def refuse(*args, **kwargs):
        raise AssertionError("the rank check built projections")

    for name in ("build_projections", "build_face_projections", "build_cell_projection"):
        monkeypatch.setattr(projection, name, refuse)
    r = check_div_surjectivity(cube1, 2).rank
    assert (r.rank, r.kernel_dim) == (4, 77)
    r = check_div_surjectivity(unit_tet, 2).rank
    assert (r.rank, r.kernel_dim) == (4, 41)
    assert check_div_surjectivity(two_cell, 2).rank.rank == 8


def test_rank_invariance_scaling_permutation(unit_tet):
    base = assemble_divergence(unit_tet, 2)
    rank0 = np.linalg.matrix_rank(base, tol=1e-9 * np.linalg.norm(base))
    for lam in (0.5, 2.0):
        B = assemble_divergence(scaled_mesh(unit_tet, lam), 2)
        assert np.linalg.matrix_rank(B, tol=1e-9 * np.linalg.norm(B)) == rank0
    rng = np.random.default_rng(0)
    perm = rng.permutation(base.shape[1])
    assert np.linalg.matrix_rank(base[:, perm], tol=1e-9 * np.linalg.norm(base)) == rank0


ORACLE_MESHES = ("cube1", "unit_tet", "two_cell", "cube2", "tets2", "torus", "hex_and_pyramids",
                 "hex_cell", "voronoi_cell")


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_certified_rank_matches_svd(name, k, request):
    """The structural certificate gives the rank and kernel dimension of the
    dense SVD on every test mesh the SVD oracle can take."""
    mesh = request.getfixturevalue(name)
    if complex_dims(mesh, k).dim_V > DENSE_DOF_CAP:
        pytest.skip("above the dense SVD cap")
    rank, kernel, gap = svd_rank(mesh, k)
    assert gap >= 10.0
    r = check_div_surjectivity(mesh, k).rank
    assert (r.rank, r.kernel_dim) == (rank, kernel)


def _tampered(mesh, mapv, where):
    """B with one interior face whose two entries no longer cancel, or with a
    second entry in the first divergence-moment row."""
    B = forms.divergence_matrix(mesh, mapv).tolil()
    if where == "interior face":
        col = next(c for c in B[0].rows[0] if B[:, c].nnz == 2)
        B[0, col] *= 1.5
    else:
        B[1, B[0].rows[0][0]] = 1.0
    return B.tocsr()


@pytest.mark.parametrize("where", ["interior face", "moment row"])
def test_tampered_divergence_gets_no_rank(two_cell, where, monkeypatch):
    """A B off the certified structure is reported not passed and given no
    rank, although it still has full row rank."""
    tampered = []
    monkeypatch.setattr(derham, "divergence_matrix",
                        lambda mesh, mapv: tampered.append(_tampered(mesh, mapv, where)) or tampered[-1])
    rep = check_div_surjectivity(two_cell, 2)
    assert np.linalg.matrix_rank(tampered[0].toarray()) == rep.dims.dim_Q
    assert rep.rank.rank is None and rep.rank.kernel_dim is None
    assert not rep.rank.passed
    assert rep.to_json_dict()["rank"]["passed"] is False
    assert any("no rank certified" in note for note in rep.notes)


def test_certified_rank_counts_closed_components():
    """Constant rows of cells linked only by interior faces, with no boundary
    face, lose one rank per such component: the incidence of a closed graph."""
    pq = 2
    # cells 0-1 share two faces and touch nothing else; cell 2 has a boundary face
    rows = [0, 2, 0, 2, 1, 3, 4, 5]
    cols = [0, 0, 1, 1, 2, 3, 4, 5]
    vals = [1.0, -1.0, -2.0, 2.0, 3.0, 3.0, 0.5, 4.0]
    B = sp.csr_matrix((vals, (rows, cols)), shape=(6, 6))
    assert certified_rank(B, pq) == np.linalg.matrix_rank(B.toarray()) == 5


def test_divfree_zero_solution(cube1, disc):
    maps, projs, fps = disc(cube1, 2)
    assert check_divfree(np.zeros(maps[0].ndof), cube1, maps[0], projs) == 0.0


def test_divfree_solution_and_negative_control(cube2, disc):
    case = make_case("ex1-stokes")
    maps, projs, fps = disc(cube2, 2)
    spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=2)
    sol = solve_stokes(assemble(cube2, maps, spec, projs, fps))
    val = check_divfree(sol.u, cube2, maps[0], projs)
    assert val <= 1e-9
    assert val <= 10 * 1e-10 or val < 1e-10   # within 10x of the solver tolerance
    # negative control: the interpolant of a non-divergence-free field
    u = lambda p: np.stack([np.atleast_2d(p)[:, 0], np.zeros(len(np.atleast_2d(p))), np.zeros(len(np.atleast_2d(p)))], axis=1)
    div_u = lambda p: np.ones(len(np.atleast_2d(p)))
    d = interpolate_velocity(cube2, maps[0], u, div_u)
    assert check_divfree(d, cube2, maps[0], projs) > 0.5


def test_report_json(cube1):
    rep = check_div_surjectivity(cube1, 2)
    js = rep.to_json_dict()
    assert js["rank"]["passed"] is True
    assert js["alternating_sum"] == 0
    assert js["dims"]["V"] == 81
