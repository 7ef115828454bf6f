"""The quadrature-free convection kernel against the per-point quadrature
oracle of helpers.py, on random jittered tetrahedra, polyhedral cells,
meshes mixing local layouts, and k = 4."""

from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    convection_oracle,
    convection_oracle_scatter,
    cube_and_pyramids,
    extract_cells,
    single_distorted_hex,
    truncated_octahedron_cell,
)
from vemflow.dofspace import CELL_BLOCK, build_dof_maps
from vemflow.forms import assemble_convection, local_convection
from vemflow.meshing import (
    generate_structured_cubes,
    generate_tetra_mesh,
)
from vemflow.projection import build_projections

RTOL = 1e-10


def _jittered_tet_cases(n=10):
    """Fixed pseudo-random (seed, jitter, k, u_seed) draws: both degrees,
    jitter over [0, 0.25] with both ends included."""
    rng = np.random.default_rng(20261018)
    jitters = np.concatenate([[0.0, 0.25], rng.uniform(0.0, 0.25, n - 2)])
    return [(int(rng.integers(2**16)), float(j), 2 + i % 2, int(rng.integers(2**16)))
            for i, j in enumerate(jitters)]


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _check_global(mesh, k, u_seed):
    maps = build_dof_maps(mesh, k)
    mapv = maps[0]
    projs, _ = build_projections(mesh, mapv)
    u = np.random.default_rng(u_seed).standard_normal(mapv.ndof)
    C, Cg = assemble_convection(mapv, projs, u)
    C_ref, Cg_ref = convection_oracle_scatter(mesh, mapv, projs, u)
    assert _rel(C.toarray(), C_ref) < RTOL
    assert _rel(Cg.toarray(), Cg_ref) < RTOL
    return projs


@pytest.mark.parametrize("seed,jitter,k,u_seed", _jittered_tet_cases())
def test_batched_convection_matches_oracle_on_jittered_tets(seed, jitter, k, u_seed):
    # the six Kuhn tets around the box at the origin, whose other grid
    # points all move under the jitter
    mesh = extract_cells(generate_tetra_mesh(2, jitter=jitter, seed=seed), range(6))
    _check_global(mesh, k, u_seed)


@lru_cache(maxsize=None)
def _single_cell(name: str, k: int):
    mesh = {"cube1": generate_structured_cubes(1), "hex_cell": single_distorted_hex(),
            "voronoi_cell": truncated_octahedron_cell()}[name]
    return mesh, build_projections(mesh, build_dof_maps(mesh, k)[0])[0][0]


@pytest.mark.parametrize("name,k", [
    ("cube1", 2), ("cube1", 3), ("cube1", 4),
    ("hex_cell", 2), ("hex_cell", 3),
    ("voronoi_cell", 2), ("voronoi_cell", 3),
])
@pytest.mark.parametrize("w_seed", [0, 1, 2])     # C(w), Cg(w) are linear in w
def test_local_convection_matches_oracle_on_polyhedra(name, k, w_seed):
    mesh, pr = _single_cell(name, k)
    w = np.random.default_rng(w_seed).standard_normal(pr.ndof)
    (C,), (Cg,) = local_convection([pr], w[None])
    C_ref, Cg_ref = convection_oracle(mesh, 0, pr, w)
    assert _rel(C, C_ref) < RTOL
    assert _rel(Cg, Cg_ref) < RTOL


@pytest.mark.parametrize("k", [2, 3])
def test_batched_convection_groups_mixed_layouts(k):
    mesh = cube_and_pyramids()
    assert mesh.n_cells == 7
    projs = _check_global(mesh, k, u_seed=53)
    assert len({pr.ndof for pr in projs}) == 2


@pytest.mark.parametrize("k", [2, 3])
def test_blocked_convection_equals_one_contraction_per_group(k):
    """assemble_convection's blocks of CELL_BLOCK cells give, bit for bit,
    the matrices of one contraction and one scatter over the whole group (48
    cells of one layout on the n = 2 tetrahedra: a full block and a partial
    one)."""
    mesh = generate_tetra_mesh(2, jitter=0.1, seed=7)
    mapv = build_dof_maps(mesh, k)[0]
    projs, _ = build_projections(mesh, mapv)
    assert [len(g.cells) for g in mapv.groups] == [48] and 48 > CELL_BLOCK
    u = np.random.default_rng(k).standard_normal(mapv.ndof)
    g = mapv.groups[0]
    whole = local_convection([projs[c] for c in g.cells], u[g.dofs])
    for got, w in zip(assemble_convection(mapv, projs, u), whole):
        want = np.zeros(len(mapv.indices))
        np.add.at(want, g.slots.ravel(), w.ravel())
        assert np.array_equal(got.data, want)
