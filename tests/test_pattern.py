"""The DoF map's cell-block pattern, the assembly that sums cell blocks into
it and the equilibrated solve on CSC arrays, against the oracles of
helpers.py: the per-cell DoF-map loop, the COO scatter, the CSR/CSC
equilibration and the per-face and per-cell loops of the assembly.  Meshes:
the seven of test_batched.py (seeded jittered tetrahedra, cubes, a distorted
hexahedron, a truncated octahedron, hexahedron and pyramids) at k = 2, 3, 4.
The bounds were fixed before the first run: the pattern, the DoF maps and
the masks exactly equal; A, C and Cg within 1e-15 of the largest oracle
entry; B bit for bit against its closed form cell by cell, and within
1e-12 of the scatter of the cell projections' pairing Hq div, whose
round-trip through Hq^-1 it removes; the equilibrated, permuted matrix, the
solution and the LU fill bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import (
    cell_projection_loop,
    classify_neumann_loop,
    dirichlet_mask_loop,
    divergence_matrix_loop,
    dof_maps_loop,
    equilibrated_solve_oracle,
    face_projections_loop,
    local_b,
    reduced_embedding_coo,
    reduced_keep_loop,
    scatter_oracle,
)
from test_batched import MESHES, _disc, _mesh
from vemflow import flow
from vemflow.cases import make_case, x_plane_neumann
from vemflow.dofspace import build_dof_maps, build_reduced_maps
from vemflow.forms import (
    ProblemSpec,
    assemble,
    assemble_convection,
    classify_neumann,
    dump_matrix,
    local_a,
    local_convection,
)
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections

K_AND_MESH = [(name, k) for name in MESHES for k in (2, 3, 4)]


def _spec(k, neumann=False):
    """ex2-ns with zero boundary velocity: its own carries a flux of up to
    3e-8 on the meshes other than unit cubes, which assemble rejects."""
    case = make_case("ex2-ns", k=k)
    return ProblemSpec(nu=case.nu, load=case.load, dirichlet=lambda p: np.zeros((len(p), 3)), k=k,
                       convective=True, neumann_faces=x_plane_neumann if neumann else None,
                       traction=case.traction)


def _max_rel(got, want) -> float:
    got, want = got.toarray(), want.toarray()
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name,k", K_AND_MESH)
def test_dof_maps_match_loop(name, k):
    mesh = _mesh(name)
    (mapv, _), _, _ = _disc(name, k)
    offsets, cell_global, layouts, dirichlet = dof_maps_loop(mesh, k)
    assert mapv.offsets == offsets
    assert np.array_equal(mapv.dirichlet, dirichlet)
    assert np.array_equal(build_reduced_maps(mapv), reduced_keep_loop(mesh, mapv))
    for got, want in zip(mapv.cell_global, cell_global, strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(mapv.layouts, layouts, strict=True):
        for field in ("vertex", "edge", "face", "d4", "d5"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.ndof == want.ndof
    # the groups are mesh.cell_groups(), and their rows are the cells' DoFs
    assert [g.cells.tolist() for g in mapv.groups] == [c.tolist() for c in mesh.cell_groups()]
    for g in mapv.groups:
        assert np.array_equal(g.dofs, np.array([cell_global[c] for c in g.cells]))


@pytest.mark.parametrize("name,k", K_AND_MESH)
def test_pattern_is_scipy_canonical(name, k):
    """The pattern is the one scipy's COO sum makes of all cell blocks, and
    a group's slots place its blocks where that sum puts them."""
    (mapv, _), _, _ = _disc(name, k)
    rng = np.random.default_rng(k)
    blocks = [rng.standard_normal(g.slots.shape) for g in mapv.groups]
    dofs = [g.dofs for g in mapv.groups]
    (want,) = scatter_oracle((mapv.ndof, mapv.ndof), dofs, dofs, blocks)
    want = want.tocsc()
    assert np.array_equal(mapv.indptr, want.indptr) and np.array_equal(mapv.indices, want.indices)
    assert mapv.indices.dtype == mapv.indptr.dtype == np.int32
    for g, b in zip(mapv.groups, blocks):
        (one,) = scatter_oracle((mapv.ndof, mapv.ndof), [g.dofs[:1]], [g.dofs[:1]], [b[:1]])
        data = np.zeros(len(mapv.indices))
        data[g.slots[0]] = b[0]
        assert np.array_equal(sp.csc_matrix((data, mapv.indices, mapv.indptr),
                                            shape=one.shape).toarray(), one.toarray())


@pytest.mark.parametrize("name,k", K_AND_MESH)
def test_cell_matrices_match_scatter(name, k):
    """A, C and Cg summed into the pattern against the COO scatter of the
    same cell blocks, over the per-cell loop's DoFs; B against its closed
    form cell by cell, and against the scatter of the projections' pairing."""
    mesh = _mesh(name)
    maps, projs, fps = _disc(name, k)
    mapv, mapq = maps
    _, cell_global, _, _ = dof_maps_loop(mesh, k)
    groups = mesh.cell_groups()
    dofs = [np.array([cell_global[c] for c in cells]) for cells in groups]
    pq = mapq.n_per_cell
    spec = _spec(k)
    system = assemble(mesh, maps, spec, projs, fps)
    (A,) = scatter_oracle((mapv.ndof,) * 2, dofs, dofs,
                          [np.stack([local_a(projs[c], spec.nu, spec.stabilization) for c in cells])
                           for cells in groups])
    (B,) = scatter_oracle((mapq.ndof, mapv.ndof), [cells[:, None] * pq + np.arange(pq) for cells in groups],
                          dofs, [np.stack([local_b(projs[c]) for c in cells]) for cells in groups])
    u = np.random.default_rng(k).standard_normal(mapv.ndof)
    batches = [local_convection([projs[c] for c in cells], u[d]) for cells, d in zip(groups, dofs)]
    C, Cg = scatter_oracle((mapv.ndof,) * 2, dofs, dofs, [b[0] for b in batches], [b[1] for b in batches])
    got_C, got_Cg = assemble_convection(mapv, projs, u)
    for got, want in ((system.A, A), (got_C, C), (got_Cg, Cg)):
        assert _max_rel(got, want) <= 1e-15
    closed = divergence_matrix_loop(mesh, mapv)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(system.B, field), getattr(closed, field)), field
    assert _max_rel(system.B, B) <= 1e-12
    assert system.A.format == got_C.format == got_Cg.format == "csc"
    assert system.B.format == "csr" and system.B.has_canonical_format


@pytest.mark.parametrize("neumann", [False, True])
@pytest.mark.parametrize("name,k", [(name, 2) for name in MESHES] + [("cubes2", 3), ("mixed", 4)])
def test_assembly_masks_and_embedding_match_loops(name, k, neumann):
    """The Neumann faces, the Dirichlet mask and the reduced embedding of
    `assemble`, with and without Neumann faces, equal the loops'."""
    mesh = _mesh(name)
    maps, projs, fps = _disc(name, k)
    spec = _spec(k, neumann)
    faces = classify_neumann(mesh, spec)
    assert faces.tolist() == classify_neumann_loop(mesh, spec)
    if len(faces) == np.count_nonzero(mesh.boundary_face):
        return      # no Dirichlet face left: nothing to assemble
    system = assemble(mesh, maps, spec, projs, fps)
    assert np.array_equal(system.dirichlet_mask, dirichlet_mask_loop(mesh, maps[0], faces.tolist()))
    E = reduced_embedding_coo(mesh, maps[0], projs, system.keep)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(system.E, field), getattr(E, field)), field


def _stokes_system(mesh, k):
    maps = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, maps[0])
    case = make_case("ex1-stokes", k=k)
    return assemble(mesh, maps, ProblemSpec(nu=case.nu, load=case.load, dirichlet=case.velocity, k=k),
                    projs, fps)


@pytest.mark.parametrize("mesh,k", [(lambda: generate_structured_cubes(2), 2),
                                    (lambda: generate_tetra_mesh(2, seed=1), 3),
                                    (lambda: generate_structured_cubes(4), 2)],
                         ids=["cube2", "tets2-k3", "cubes4"])
def test_equilibrated_solve_matches_oracle(mesh, k, monkeypatch):
    """The scaling and the permutation on K's CSC arrays hand SuperLU the
    matrix of scipy's products and conversions, in float32, bit for bit,
    and the reduced matrix is the same from a CSC and a CSR velocity block.
    The factor's own solve is the oracle's bit for bit; the FGMRES solve it
    preconditions is a float64 direct solve's to 1e-12."""
    system = _stokes_system(mesh(), k)
    K = flow._saddle_matrix(system, system.A)
    K_csr = flow._saddle_matrix(system, system.A.tocsr())
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(K, field), getattr(K_csr, field)), field
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: factored.append(A) or splu(A, **kw))
    rhs = np.random.default_rng(k).standard_normal(K.shape[0])
    lu = flow._EquilibratedLU(K, system.order)
    x32, x, fill = lu.precondition(rhs), lu.solve(rhs), lu.fill
    x_ref, fill_ref = equilibrated_solve_oracle(K, rhs, system.order)
    got, want = factored
    assert got.dtype == want.dtype == np.float32
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(x32, x_ref) and fill == fill_ref
    x64 = spla.spsolve(K, rhs)
    assert np.max(np.abs(x - x64)) <= 1e-12 * np.max(np.abs(x64))


def test_cell_matrices_share_the_pattern():
    """A, C and Cg are CSC matrices on the DoF map's own index arrays."""
    mesh = generate_tetra_mesh(2, seed=3)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    system = assemble(mesh, maps, _spec(2), projs, fps)
    C, Cg = assemble_convection(maps[0], projs, np.ones(maps[0].ndof))
    for M in (system.A, C, Cg):
        assert np.shares_memory(M.indices, maps[0].indices)
        assert np.shares_memory(M.indptr, maps[0].indptr)


def test_assembly_builds_no_coo(monkeypatch):
    """Two assemblies and three convection assemblies on one DoF map sum
    into the pattern and lay out B and E row by row: no COO matrix."""
    mesh = generate_structured_cubes(2)
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    made = []
    for cls in (sp.coo_matrix, sp.coo_array):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__, **kw:
                            made.append(type(self)) or _init(self, *a, **kw))
    for neumann in (False, True):
        assemble(mesh, maps, _spec(2, neumann), projs, fps)
    for seed in range(3):
        assemble_convection(maps[0], projs, np.random.default_rng(seed).standard_normal(maps[0].ndof))
    assert made == []
    sp.csr_matrix((np.ones(1), ([0], [0])), shape=(1, 1))     # the count sees a matrix built from COO
    assert made == [sp.coo_matrix]


def test_lu_fill_on_cubes4():
    """The LU fill of the Stokes solve on 4^3 cubes at k = 2.  SuperLU picks
    pivots by value, so the fill moves with the last bits of the matrix:
    the closed-form B, which drops the round-off of the projections'
    pairing, moved it from 244,472 to 244,416.  Sharing the projections of
    translated cells moved it to 244,405: every cell now carries its class
    representative's local matrix, which differs from its own by round-off
    (test_a1_from_classes_matches_per_cell_build bounds the difference).
    `lu_fill` counts the entries SuperLU stores, 244,908 then; the history
    above is of the entries of scipy's CSC copies of L and U, which the test
    builds from the kept factor.  A diagonal pivot threshold of 0.01, which
    keeps a diagonal pivot unless it is under 1% of its column's largest
    entry, moved them to 232,159 and 232,538.  The float32 factor has the
    float64 one's pivots and SuperLU's count, 232,538; scipy's CSC copies
    drop the entries that are zero in float32 and hold 231,786."""
    system = _stokes_system(generate_structured_cubes(4), 2)
    sol = flow.solve_stokes(system)
    lu = system.stokes_factor[0].lu
    assert lu.L.nnz + lu.U.nnz == 231786
    assert sol.lu_fill == 232538


def test_a1_from_classes_matches_per_cell_build():
    """A1 on 4^3 cubes from the classed projections against A1 from the
    per-face and per-cell loops: equal to 1e-13 relative, so the fill's
    move above is the pivoting's reading of round-off."""
    mesh = generate_structured_cubes(4)
    system = _stokes_system(mesh, 2)
    maps = build_dof_maps(mesh, 2)
    fps = {f: face_projections_loop(mesh, f, 2, maps[0].edge_points) for f in range(mesh.n_faces)}
    projs = [cell_projection_loop(mesh, maps[0], c, fps) for c in range(mesh.n_cells)]
    case = make_case("ex1-stokes", k=2)
    ref = assemble(mesh, maps, ProblemSpec(nu=case.nu, load=case.load, dirichlet=case.velocity, k=2),
                   projs, fps)
    assert _max_rel(system.A1, ref.A1) <= 1e-13


def test_dump_matrix_row_major(tmp_path):
    """dump_matrix writes A and B row by row, as it did from CSR blocks:
    the entries in the order of the COO scatter's CSR matrices."""
    mesh = _mesh("mixed")
    maps, projs, fps = _disc("mixed", 2)
    spec = _spec(2)
    system = assemble(mesh, maps, spec, projs, fps)
    path = tmp_path / "mat.txt"
    dump_matrix(system, str(path))
    _, cell_global, _, _ = dof_maps_loop(mesh, 2)
    groups = mesh.cell_groups()
    dofs = [np.array([cell_global[c] for c in cells]) for cells in groups]
    (A,) = scatter_oracle((maps[0].ndof,) * 2, dofs, dofs,
                          [np.stack([local_a(projs[c], spec.nu) for c in cells]) for cells in groups])
    rows = [ln.split() for ln in path.read_text().splitlines()[1:]]
    want = A.tocoo()
    got_a = [r for r in rows if r[0] == "A"]
    assert [(int(r[1]), int(r[2])) for r in got_a] == list(zip(want.row.tolist(), want.col.tolist()))
    vals = np.array([float(r[3]) for r in got_a])
    assert np.max(np.abs(vals - want.data)) <= 1e-15 * np.max(np.abs(want.data))
    b = system.B.tocoo()
    assert [(int(r[1]), int(r[2]), float(r[3])) for r in rows if r[0] == "B"] == \
        list(zip(b.row.tolist(), b.col.tolist(), b.data.tolist()))
