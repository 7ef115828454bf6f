"""The quadrature-free convection kernel against the per-point quadrature
oracle of helpers.py, on random jittered tetrahedra, polyhedral cells,
meshes mixing local layouts, and k = 4."""

from functools import lru_cache

import numpy as np
import pytest

from helpers import convection_oracle, convection_oracle_scatter
from vemflow.dofspace import build_dof_maps
from vemflow.forms import assemble_convection, local_convection
from vemflow.meshing import (
    PolyMesh,
    extract_cells,
    generate_structured_cubes,
    generate_tetra_mesh,
    single_distorted_hex,
    truncated_octahedron_cell,
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
    C, Cg = assemble_convection(mesh, mapv, projs, u)
    C_ref, Cg_ref = convection_oracle_scatter(mapv, projs, u)
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
    return build_projections(mesh, build_dof_maps(mesh, k)[0])[0][0]


@pytest.mark.parametrize("name,k", [
    ("cube1", 2), ("cube1", 3), ("cube1", 4),
    ("hex_cell", 2), ("hex_cell", 3),
    ("voronoi_cell", 2), ("voronoi_cell", 3),
])
@pytest.mark.parametrize("w_seed", [0, 1, 2])     # C(w), Cg(w) are linear in w
def test_local_convection_matches_oracle_on_polyhedra(name, k, w_seed):
    pr = _single_cell(name, k)
    w = np.random.default_rng(w_seed).standard_normal(pr.ndof)
    C, Cg = local_convection(pr, w)
    C_ref, Cg_ref = convection_oracle(pr, w)
    assert _rel(C, C_ref) < RTOL
    assert _rel(Cg, Cg_ref) < RTOL


def _cube_and_pyramids() -> PolyMesh:
    """The hexahedron [0,1]^3 next to [1,2]x[0,1]^2 cut into six pyramids
    about its centre: two local DoF layouts in one conforming mesh."""
    corners = [(x, y, z) for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]
    verts = np.array(corners + [(1.5, 0.5, 0.5)], dtype=float)
    vid = {c: i for i, c in enumerate(corners)}
    apex = len(corners)

    def box_faces(x0):
        x1 = x0 + 1
        return [[vid[(x0, y, z)] for y, z in ((0, 0), (1, 0), (1, 1), (0, 1))],
                [vid[(x1, y, z)] for y, z in ((0, 0), (1, 0), (1, 1), (0, 1))],
                [vid[(x, 0, z)] for x, z in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, 1, z)] for x, z in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, y, 0)] for x, y in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, y, 1)] for x, y in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))]]

    hex_faces = box_faces(0)
    faces = list(hex_faces)
    cells = [list(range(6))]
    tri_id = {}
    for base in box_faces(1):
        if sorted(base) == sorted(hex_faces[1]):
            bid = 1                        # shared with the hexahedron
        else:
            bid = len(faces)
            faces.append(base)
        cell = [bid]
        for i in range(4):
            key = tuple(sorted((base[i], base[(i + 1) % 4])))
            if key not in tri_id:
                tri_id[key] = len(faces)
                faces.append([base[i], base[(i + 1) % 4], apex])
            cell.append(tri_id[key])
        cells.append(cell)

    # orientation signs: +1 where the stored loop's normal points out of the cell
    signed = []
    for cell in cells:
        centre = verts[sorted({v for f in cell for v in faces[f]})].mean(axis=0)
        row = []
        for f in cell:
            p = verts[faces[f]]
            normal = np.cross(p[1] - p[0], p[2] - p[0])
            row.append((f + 1) * (1 if normal @ (p.mean(axis=0) - centre) > 0 else -1))
        signed.append(row)
    return PolyMesh(verts, faces, signed)


@pytest.mark.parametrize("k", [2, 3])
def test_batched_convection_groups_mixed_layouts(k):
    mesh = _cube_and_pyramids()
    assert mesh.n_cells == 7
    projs = _check_global(mesh, k, u_seed=53)
    assert len({pr.ndof for pr in projs}) == 2
