"""Every stacked per-cell build runs block by block of `dofspace.CELL_BLOCK`
cells: the cell projection kernel (on the classes of translates), the slot
build of the DoF map, the scatter of A1 and the convection kernel
(`test_convection.py` checks its blocks against one contraction).  The
block size changes neither a bit of the projections, the slots, A1, C and
Cg nor the classes of translates, and it bounds the transient memory of the
builds: what they allocate at their peak past what they keep."""

import tracemalloc

import numpy as np
import pytest

from vemflow import cases, dofspace, forms
from vemflow.dofspace import build_dof_maps
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import CellProjections, build_projections

CELL_FIELDS = [f for f in CellProjections.__dataclass_fields__ if f not in ("k", "ndof", "h", "vol", "rule")]
MESHES = {"tets": lambda: generate_tetra_mesh(2, jitter=0.1, seed=7),
          "cubes": lambda: generate_structured_cubes(3)}


def _build(mesh, k):
    """Projections, DoF map, A1, and C and Cg at a fixed state, as built now."""
    maps = build_dof_maps(mesh, k)
    projs, faceprojs = build_projections(mesh, maps[0])
    case = cases.make_case("ex1-stokes", k=k)
    spec = forms.ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k)
    u = np.random.default_rng(k).standard_normal(maps[0].ndof)
    return (projs, maps[0], forms.assemble(mesh, maps, spec, projs, faceprojs).A1,
            *forms.assemble_convection(maps[0], projs, u))


@pytest.mark.parametrize("name, k", [("tets", 2), ("tets", 3), ("cubes", 2)])
def test_block_size_changes_no_bit(name, k, monkeypatch):
    mesh = MESHES[name]()
    group = max(len(g) for g in mesh.cell_groups())
    monkeypatch.setattr(dofspace, "CELL_BLOCK", group)
    want_projs, want_map, want_A1, want_C, want_Cg = _build(mesh, k)
    assert len(want_map.groups) == 1
    for block in (1, 7, 32, group + 5):
        monkeypatch.setattr(dofspace, "CELL_BLOCK", block)
        projs, mapv, A1, C, Cg = _build(mesh, k)
        for pr, want in zip(projs, want_projs):
            for f in CELL_FIELDS:
                assert np.array_equal(getattr(pr, f), getattr(want, f)), (block, f)
            assert np.array_equal(pr.rule.points, want.rule.points)
        assert np.array_equal(mapv.groups[0].slots, want_map.groups[0].slots)
        assert mapv.groups[0].slots.dtype == np.int32
        assert np.array_equal(A1.data, want_A1.data)
        assert np.array_equal(C.data, want_C.data) and np.array_equal(Cg.data, want_Cg.data), block
        # the classes of translates span the blocks: 4 on the cubes, none on the tets
        assert len({id(pr.pi_0k) for pr in projs}) == len({id(pr.pi_0k) for pr in want_projs})
    assert len({id(pr.pi_0k) for pr in want_projs}) == (4 if name == "cubes" else mesh.n_cells)


def _transient_mb(build) -> float:
    """What `build()` allocates at its peak past what it keeps, in MB."""
    tracemalloc.start()
    try:
        kept = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept
    return (peak - current) / 2 ** 20


def test_cell_projections_transient_memory_is_bounded():
    """On 48 jittered tetrahedra at k = 3 one group held all its stacked
    temporaries at once, 18.9 MB past what the projections keep."""
    mesh = generate_tetra_mesh(2, seed=3)
    mapv = build_dof_maps(mesh, 3)[0]
    assert _transient_mb(lambda: build_projections(mesh, mapv)) <= 8


def test_dof_map_transient_memory_is_bounded():
    """On 6^3 cubes the slot build formed (cells, ndof, ndof) int64
    temporaries over the whole group, 28.5 MB past what the map keeps."""
    mesh = generate_structured_cubes(6)
    assert _transient_mb(lambda: build_dof_maps(mesh, 2)) <= 20
