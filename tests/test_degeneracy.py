"""Degenerate input fails with a typed error that names the first offending
entity, as a loop over the entities in index order finds it: a zero-area
face, a zero-length edge, a degenerate fan triangle, an unclosed cell, an
inverted cell and a rank-deficient face DoF system."""

import numpy as np
import pytest

from vemflow import quadrature as quad
from vemflow.dofspace import build_dof_maps
from vemflow.meshing import MeshError, PolyMesh, generate_structured_cubes
from vemflow.projection import build_projections


def _cube_parts(n: int = 1):
    """(vertices, faces, signed 1-based cells) of the structured n^3 cubes."""
    m = generate_structured_cubes(n)
    return m.vertices.copy(), [f.tolist() for f in m.faces], [((f + 1) * s).tolist() for f, s in m.cells]


def _disjoint(parts):
    """One mesh input from several (vertices, faces, cells) inputs."""
    verts, faces, cells = [], [], []
    for v, fs, cs in parts:
        nv, nf = sum(len(x) for x in verts), len(faces)
        verts.append(v)
        faces += [[i + nv for i in f] for f in fs]
        cells += [[int(np.sign(s)) * (abs(s) + nf) for s in c] for c in cs]
    return np.vstack(verts), faces, cells


def _l_prism():
    """A prism over an L-shaped polygon, whose centroid lies outside it, with
    the two L faces stored last (faces 6 and 7)."""
    lshape = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    n = len(lshape)
    verts = np.array([(x, y, 0.0) for x, y in lshape] + [(x, y, 1.0) for x, y in lshape])
    faces = [[i, (i + 1) % n, (i + 1) % n + n, i + n] for i in range(n)]
    faces += [list(range(n))[::-1], [i + n for i in range(n)]]
    return verts, faces, [[f + 1 for f in range(len(faces))]]


def _sliver_prism(eps: float = 1e-7):
    """A triangular prism over a triangle of height eps: its triangle faces
    (3 and 4) are valid geometry, but their P_2 DoF systems are numerically
    rank-deficient."""
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, eps)]
    verts = np.array([(x, y, 0.0) for x, y in tri] + [(x, y, 1.0) for x, y in tri])
    faces = [[i, (i + 1) % 3, (i + 1) % 3 + 3, i + 3] for i in range(3)] + [[0, 2, 1], [3, 4, 5]]
    return verts, faces, [[1, 2, 3, 4, 5]]


def test_zero_area_face_named():
    v, faces, cells = _cube_parts()
    # two collinear triangles along cube edges, as faces 6 and 7 of the cell
    v = np.vstack([v, [0.5, 0.0, 0.0], [0.5, 0.0, 1.0]])
    faces += [[0, 8, 4], [1, 9, 5]]
    cells[0] += [7, 8]
    with pytest.raises(MeshError, match=r"^face 6 has zero area"):
        PolyMesh(v, faces, cells)


def test_zero_length_edge_named():
    v, faces, cells = _cube_parts()
    # vertex 8 sits on vertex 7: the top face becomes 1-5-8-7-3, whose
    # edge 8-7 is the mesh's edge 13 (edges number in order of appearance)
    v = np.vstack([v, v[7]])
    faces[5] = [1, 5, 8, 7, 3]
    with pytest.raises(MeshError, match=r"^degenerate edge 13 \(vertices 7, 8\)"):
        PolyMesh(v, faces, cells)


def test_degenerate_fan_triangle_named():
    mesh = PolyMesh(*_l_prism())
    with pytest.raises(MeshError, match=r"^degenerate fan triangle on face 6$"):
        build_projections(mesh, build_dof_maps(mesh, 2)[0])
    with pytest.raises(MeshError, match=r"^degenerate fan triangle on face 6$"):
        quad.face_quadrature(mesh, [6, 7], 4)


def test_unclosed_cell_named():
    v, faces, cells = _cube_parts(2)
    mesh = generate_structured_cubes(2)
    for ci in (5, 6):      # flip one boundary face of cells 5 and 6
        pos = next(i for i, f in enumerate(mesh.cells[ci][0]) if mesh.boundary_face[f])
        cells[ci][pos] = -cells[ci][pos]
    with pytest.raises(MeshError, match=r"^cell 5 is not closed"):
        PolyMesh(v, faces, cells)


def test_inverted_cell_named():
    v, faces, cells = _cube_parts()
    flipped = [[-s for s in c] for c in cells]
    parts = [(v, faces, cells), (v + 2.0, faces, flipped), (v + 4.0, faces, flipped)]
    with pytest.raises(MeshError, match=r"^inverted cell 1:"):
        PolyMesh(*_disjoint(parts))


def test_rank_deficient_face_named():
    mesh = PolyMesh(*_sliver_prism())
    with pytest.raises(np.linalg.LinAlgError, match=r"^rank-deficient DoF system on face 3$"):
        build_projections(mesh, build_dof_maps(mesh, 2)[0])


def test_first_offending_face_across_vertex_counts():
    """An L prism (fan-degenerate hexagons, faces 6 and 7) and, stored after
    it, a sliver prism (rank-deficient triangles, faces 11 and 12): a face by
    face loop meets face 6 first, although the triangles form the first
    group of equal vertex count."""
    mesh = PolyMesh(*_disjoint([_l_prism(), _sliver_prism()]))
    with pytest.raises(MeshError, match=r"^degenerate fan triangle on face 6$"):
        build_projections(mesh, build_dof_maps(mesh, 2)[0])
