import json

import numpy as np
import pytest

from helpers import extract_cells
from vemflow.meshing import (
    MeshError,
    PolyMesh,
    generate_structured_cubes,
    generate_tetra_mesh,
    load_mesh,
    mesh_from_tets,
    mesh_size,
    quality_check,
)


def test_unit_cube_counts(cube1):
    assert (cube1.n_vertices, cube1.n_edges, cube1.n_faces, cube1.n_cells) == (8, 12, 6, 1)
    assert cube1.euler_number() == 1


def test_single_tet_counts(unit_tet):
    assert (unit_tet.n_vertices, unit_tet.n_edges, unit_tet.n_faces, unit_tet.n_cells) == (4, 6, 4, 1)


@pytest.mark.parametrize("n,expected", [
    (1, (8, 12, 6, 1)),
    (2, (27, 54, 36, 8)),
    (3, (64, 144, 108, 27)),
])
def test_structured_counts(n, expected):
    m = generate_structured_cubes(n)
    assert (m.n_vertices, m.n_edges, m.n_faces, m.n_cells) == expected
    lv, le, lf, lp = expected
    assert lv == (n + 1) ** 3 and le == 3 * n * (n + 1) ** 2
    assert lf == 3 * n**2 * (n + 1) and lp == n**3
    assert m.euler_number() == 1


def test_structured_n2_cells():
    assert generate_structured_cubes(2).n_cells == 8


def test_mesh_size_examples(cube1, cube2, unit_tet):
    assert np.isclose(mesh_size(cube1), np.sqrt(3.0))
    assert np.isclose(mesh_size(cube2), np.sqrt(3.0) / 2.0)
    assert np.isclose(mesh_size(unit_tet), np.sqrt(2.0))


def test_json_round_trip(tmp_path, cube2):
    path = tmp_path / "m.json"
    cube2.save_json(str(path))
    back = load_mesh(str(path))
    assert (back.n_vertices, back.n_edges, back.n_faces, back.n_cells) == \
        (cube2.n_vertices, cube2.n_edges, cube2.n_faces, cube2.n_cells)
    assert np.allclose(back.vertices, cube2.vertices)
    for f1, f2 in zip(back.faces, cube2.faces):
        assert np.array_equal(f1, f2)
    for (fa, sa), (fb, sb) in zip(back.cells, cube2.cells):
        assert np.array_equal(fa, fb) and np.array_equal(sa, sb)
    assert np.array_equal(back.edges, cube2.edges)


def test_tetra_list_round_trip(tmp_path):
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    eles = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    np.savetxt(tmp_path / "m.node", nodes)
    np.savetxt(tmp_path / "m.ele", eles, fmt="%d")
    mesh = load_mesh(str(tmp_path / "m"), "tetra-list")
    assert mesh.n_cells == 2
    assert mesh.n_faces == 7      # one shared face
    assert mesh.euler_number() == 1


def test_index_out_of_range(tmp_path):
    bad = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": [[0, 1, 3]], "cells": [[1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(MeshError, match="index out of range"):
        load_mesh(str(path))


def test_non_planar_face_rejected():
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0.2], [0, 1, 0],     # warped quad
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    with pytest.raises(MeshError, match="non-planar"):
        PolyMesh(verts, faces, [[1, 2, 3, 4, 5, 6]])


def test_non_manifold_rejected(cube1):
    faces = [f.tolist() for f in cube1.faces]
    cells = [((f + 1) * s).tolist() for f, s in cube1.cells]
    cells.append(cells[0])
    cells.append([-c for c in cells[0]])
    with pytest.raises(MeshError, match="non-manifold"):
        PolyMesh(cube1.vertices, faces, cells)


def test_inverted_cell_rejected(cube1):
    faces = [f.tolist() for f in cube1.faces]
    flipped = [(-(f + 1) * s).tolist() for f, s in cube1.cells]
    with pytest.raises(MeshError, match="inverted cell"):
        PolyMesh(cube1.vertices, faces, flipped)


def test_divergence_volume_vs_subdivision(cube2, tets2, voronoi_cell):
    """Volume via the divergence theorem over faces equals the tetrahedral
    subdivision volume to 1e-10 relative."""
    from vemflow import quadrature as quad

    for mesh in (cube2, tets2, voronoi_cell):
        for ci in range(mesh.n_cells):
            v_div = 0.0
            for f, s in zip(*mesh.cells[ci]):
                _, (pts3,), (w,) = quad.face_quadrature(mesh, [f], 2)
                nrm = mesh.face_geom[f].normal
                v_div += s * float(w @ (pts3 @ nrm)) / 3.0
            rule = quad.cell_quadrature(mesh, ci, 1)
            v_sub = float(np.sum(rule.weights))
            ref = mesh.cell_geom[ci].volume
            assert abs(v_div - ref) <= 1e-10 * ref
            assert abs(v_sub - ref) <= 1e-10 * ref


def test_orientation_closure(cube2, tets2, hex_cell, voronoi_cell):
    for mesh in (cube2, tets2, hex_cell, voronoi_cell):
        for ci in range(mesh.n_cells):
            acc = np.zeros(3)
            for f, s in zip(*mesh.cells[ci]):
                g = mesh.face_geom[f]
                acc += s * g.area * g.normal
            assert np.linalg.norm(acc) <= 1e-10 * mesh.cell_geom[ci].h ** 2


def test_frames_orthonormal(cube2, tets2, voronoi_cell):
    for mesh in (cube2, tets2, voronoi_cell):
        for g in mesh.face_geom:
            assert abs(np.linalg.norm(g.normal) - 1) < 1e-12
            assert abs(np.linalg.norm(g.tau1) - 1) < 1e-12
            assert abs(np.linalg.norm(g.tau2) - 1) < 1e-12
            assert abs(g.tau1 @ g.tau2) < 1e-12
            assert np.allclose(np.cross(g.tau1, g.tau2), g.normal, atol=1e-12)
        for e in mesh.edge_geom:
            assert abs(np.linalg.norm(e.tangent) - 1) < 1e-12


def test_quality_cube(cube1):
    rep = quality_check(cube1, 0.5)
    assert np.isclose(rep.rho_hat, 1.0 / np.sqrt(3.0))
    assert rep.passed and not rep.failing_cells
    rep_strict = quality_check(cube1, 0.9)
    assert not rep_strict.passed
    assert rep_strict.failing_cells == [0]
    assert np.all(rep.edge_ratio > 0) and np.all(rep.edge_ratio <= 1)
    assert np.all(rep.ball_ratio > 0)


def test_quality_sliver():
    nodes = np.array([[0.0, 0, 0], [1e-6, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = mesh_from_tets(nodes, np.array([[0, 1, 2, 3]]))
    rep = quality_check(mesh, 0.1)
    assert rep.rho_hat < 1e-5
    assert not rep.passed


def test_quality_deterministic(tets2):
    a = quality_check(tets2, 0.2)
    b = quality_check(tets2, 0.2)
    assert np.array_equal(a.edge_ratio, b.edge_ratio)
    assert a.rho_hat == b.rho_hat


def test_tetra_mesh_fills_cube():
    for n in (1, 2, 3):
        m = generate_tetra_mesh(n, seed=4)
        assert m.n_cells == 6 * n**3
        assert abs(sum(g.volume for g in m.cell_geom) - 1.0) < 1e-12
        assert m.euler_number() == 1
        assert quality_check(m, 0.05).passed


def test_tetra_mesh_deterministic():
    a = generate_tetra_mesh(2, seed=9)
    b = generate_tetra_mesh(2, seed=9)
    assert np.array_equal(a.vertices, b.vertices)


def test_extract_cells_torus(cube3):
    ring = [i * 9 + j * 3 for i in range(3) for j in range(3) if not (i == 1 and j == 1)]
    torus = extract_cells(cube3, ring)
    assert torus.n_cells == 8
    assert torus.euler_number() == 0     # solid torus


def test_distorted_hex_and_voronoi_cell(hex_cell, voronoi_cell):
    assert hex_cell.n_cells == 1 and hex_cell.n_faces == 6
    assert hex_cell.cell_geom[0].volume > 0
    assert voronoi_cell.n_faces == 14 and voronoi_cell.n_vertices == 24
    assert voronoi_cell.euler_number() == 1
    assert np.isclose(voronoi_cell.cell_geom[0].volume, 0.5)


def test_scaled_mesh(cube2):
    m = cube2.scaled(2.0)
    assert np.isclose(mesh_size(m), 2.0 * mesh_size(cube2))
    assert m.euler_number() == cube2.euler_number()
