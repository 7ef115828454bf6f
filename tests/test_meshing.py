import json
import re
import warnings

import numpy as np
import pytest

from helpers import (
    cube_and_pyramids,
    extract_cells,
    face_row,
    generate_tetra_mesh_loop,
    mesh_from_tets_loop,
    quality_check_loop,
    scaled_mesh,
    topology_loop,
)
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
from vemflow.cli import main
from vemflow.dofspace import build_dof_maps
from vemflow.projection import build_projections


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_is_rejected(bad, tmp_path):
    """A NaN or infinite coordinate fails before any geometry is formed,
    naming the first such vertex; a JSON file can carry NaN and Infinity,
    which Python's json reads."""
    d = generate_structured_cubes(1).to_json_dict()
    d["vertices"][6][0] = d["vertices"][5][1] = float(bad)
    with pytest.raises(MeshError, match=r"^vertex 5 has a non-finite coordinate$"):
        PolyMesh(d["vertices"], d["faces"], d["cells"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(MeshError, match=r"^vertex 5 has a non-finite coordinate$"):
        load_mesh(str(path))


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
                nrm = mesh.face_stack.normal[f]
                v_div += s * float(w @ (pts3 @ nrm)) / 3.0
            rule = quad.cell_quadrature(mesh, ci, 1)
            v_sub = float(np.sum(rule.weights))
            ref = mesh.cell_stack.volume[ci]
            assert abs(v_div - ref) <= 1e-10 * ref
            assert abs(v_sub - ref) <= 1e-10 * ref


def test_orientation_closure(cube2, tets2, hex_cell, voronoi_cell):
    for mesh in (cube2, tets2, hex_cell, voronoi_cell):
        for ci in range(mesh.n_cells):
            acc = np.zeros(3)
            for f, s in zip(*mesh.cells[ci]):
                g = face_row(mesh, f)
                acc += s * g.area * g.normal
            assert np.linalg.norm(acc) <= 1e-10 * mesh.cell_stack.h[ci] ** 2


def test_frames_orthonormal(cube2, tets2, voronoi_cell):
    for mesh in (cube2, tets2, voronoi_cell):
        for f in range(mesh.n_faces):
            g = face_row(mesh, f)
            assert abs(np.linalg.norm(g.normal) - 1) < 1e-12
            assert abs(np.linalg.norm(g.tau1) - 1) < 1e-12
            assert abs(np.linalg.norm(g.tau2) - 1) < 1e-12
            assert abs(g.tau1 @ g.tau2) < 1e-12
            assert np.allclose(np.cross(g.tau1, g.tau2), g.normal, atol=1e-12)


def test_quality_cube(cube1):
    rep = quality_check(cube1, 0.5)
    assert np.isclose(rep.rho_hat, 1.0 / np.sqrt(3.0))
    assert rep.passed and not rep.failing_cells
    rep_strict = quality_check(cube1, 0.9)
    assert not rep_strict.passed
    assert rep_strict.failing_cells == [0]
    edge_ratio = quality_check_loop(cube1, 0.5).edge_ratio
    assert np.all(edge_ratio > 0) and np.all(edge_ratio <= 1)
    assert np.all(rep.ball_ratio > 0)


@pytest.mark.parametrize("rho", [np.nan, np.inf, -1.0, -1e-300])
def test_quality_check_rejects_a_bad_rho(rho, cube1):
    with pytest.raises(ValueError, match="rho must be finite and >= 0"):
        quality_check(cube1, rho)
    assert quality_check(cube1, 0.0).passed


def test_quality_sliver():
    nodes = np.array([[0.0, 0, 0], [1e-6, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = mesh_from_tets(nodes, np.array([[0, 1, 2, 3]]))
    rep = quality_check(mesh, 0.1)
    assert rep.rho_hat < 1e-5
    assert not rep.passed


def test_quality_deterministic(tets2):
    a = quality_check(tets2, 0.2)
    b = quality_check(tets2, 0.2)
    assert np.array_equal(a.ball_ratio, b.ball_ratio)
    assert (a.rho_hat, a.failing_cells) == (b.rho_hat, b.failing_cells)


def test_tetra_mesh_fills_cube():
    for n in (1, 2, 3):
        m = generate_tetra_mesh(n, seed=4)
        assert m.n_cells == 6 * n**3
        assert abs(sum(m.cell_stack.volume) - 1.0) < 1e-12
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
    assert hex_cell.cell_stack.volume[0] > 0
    assert voronoi_cell.n_faces == 14 and voronoi_cell.n_vertices == 24
    assert voronoi_cell.euler_number() == 1
    assert np.isclose(voronoi_cell.cell_stack.volume[0], 0.5)


def test_scaled_mesh(cube2):
    m = scaled_mesh(cube2, 2.0)
    assert np.isclose(mesh_size(m), 2.0 * mesh_size(cube2))
    assert m.euler_number() == cube2.euler_number()


# -- the flat construction against the per-entity loops ----------------------

TOPOLOGY = ("faces", "cells", "edges", "face_edges", "face_cells", "face_cell_signs",
            "boundary_face", "boundary_vertex", "boundary_edge", "cell_vertices", "cell_edges")
GEOMETRY_ERRORS = (r"degenerate edge|face \d+ has zero area|inverted cell|non-planar face"
                   r"|cell \d+ is not closed")


def _raw(mesh):
    """The mesh's input: vertices, face loops and signed 1-based cells as lists."""
    return (mesh.vertices.copy(), [f.tolist() for f in mesh.faces],
            [((f + 1) * s).tolist() for f, s in mesh.cells])


def _same(a, b) -> bool:
    """Equal arrays of equal dtype, item by item through lists and tuples."""
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(_same, a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


def _assert_matches_oracles(mesh):
    oracle = topology_loop(*_raw(mesh))
    for name in TOPOLOGY:
        assert _same(getattr(mesh, name), getattr(oracle, name)), name
    assert _same(mesh.cell_groups(), oracle.cell_groups)
    got, want = quality_check(mesh, 0.2), quality_check_loop(mesh, 0.2)
    assert _same(got.ball_ratio, want.ball_ratio)
    assert (got.rho_hat, got.failing_cells) == (want.rho_hat, want.failing_cells)
    assert mesh_size(mesh) == float(np.mean(mesh.cell_stack.h))


@pytest.mark.parametrize("name", ["cube1", "cube2", "cube3", "unit_tet", "tets2", "hex_cell",
                                  "voronoi_cell"])
def test_flat_topology_matches_loops_on_fixtures(request, name):
    _assert_matches_oracles(request.getfixturevalue(name))


def test_flat_topology_matches_loops_on_built_meshes(cube3, tmp_path):
    ring = [i * 9 + j * 3 for i in range(3) for j in range(3) if not (i == 1 and j == 1)]
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    np.savetxt(tmp_path / "m.node", nodes)
    np.savetxt(tmp_path / "m.ele", np.array([[0, 1, 2, 3], [1, 2, 3, 4]]), fmt="%d")
    for mesh in (cube_and_pyramids(), extract_cells(cube3, ring),
                 load_mesh(str(tmp_path / "m"), "tetra-list")):
        _assert_matches_oracles(mesh)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tetra_generator_matches_loops(n):
    for seed, jitter in ((0, 0.15), (1, 0.15), (9, 0.3), (48392, 0.2)):
        mesh = generate_tetra_mesh(n, jitter, seed)
        ref = generate_tetra_mesh_loop(n, jitter, seed)
        assert mesh.vertices.tobytes() == ref.vertices.tobytes()
        assert _same(mesh.faces, ref.faces) and _same(mesh.cells, ref.cells)
        _assert_matches_oracles(mesh)


def test_mesh_from_tets_matches_loop():
    """Tets listed in shuffled order with both orientations, so that the
    flat build flips some of them as the loop does."""
    base = generate_tetra_mesh(2, seed=5)
    tets = np.array(base.cell_vertices)[np.random.default_rng(5).permutation(base.n_cells)]
    v = base.vertices[tets]
    vol6 = np.einsum("ij,ij->i", np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), v[:, 3] - v[:, 0])
    assert np.any(vol6 < 0) and np.any(vol6 > 0)
    mesh = mesh_from_tets(base.vertices, tets)
    ref = mesh_from_tets_loop(base.vertices, tets)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert _same(mesh.faces, ref.faces) and _same(mesh.cells, ref.cells)
    _assert_matches_oracles(mesh)


_CORRUPTIONS = ("flip a sign", "drop a cell face", "vertex id out of range", "face id out of range",
                "repeat a triangle vertex", "third cell on a face")


@pytest.mark.parametrize("seed", range(30))
def test_errors_match_the_loop(seed, cube2):
    """One seeded corruption of a small mesh, or two from seed 12 on: the flat
    build raises the loop's MeshError, or both accept the topology (the
    geometry checks may still object, as to a flipped boundary face)."""
    rng = np.random.default_rng(seed)
    kinds = [_CORRUPTIONS[seed % len(_CORRUPTIONS)]]
    if seed >= 12:
        kinds.append(_CORRUPTIONS[rng.integers(len(_CORRUPTIONS))])
    tets = "repeat a triangle vertex" in kinds or seed % 4 == 3
    v, faces, cells = _raw(generate_tetra_mesh(1, seed=seed) if tets else cube2)
    for kind in kinds:
        c = int(rng.integers(len(cells)))
        j = int(rng.integers(len(cells[c])))
        f = int(rng.integers(len(faces)))
        if kind == "flip a sign":
            cells[c][j] = -cells[c][j]
        elif kind == "drop a cell face":
            del cells[c][j]
        elif kind == "vertex id out of range":
            faces[f][int(rng.integers(len(faces[f])))] = int(rng.choice([-1, len(v)]))
        elif kind == "face id out of range":
            cells[c][j] = int(rng.choice([0, len(faces) + 1, -len(faces) - 1]))
        elif kind == "repeat a triangle vertex":
            faces[f][2] = faces[f][0]
        else:
            cells.append(list(cells[c]))
    try:
        oracle = topology_loop(v, faces, cells)
    except MeshError as exc:
        with pytest.raises(MeshError) as got:
            PolyMesh(v, faces, cells)
        assert str(got.value) == str(exc)
        return
    try:
        mesh = PolyMesh(v, faces, cells)
    except MeshError as exc:
        assert re.match(GEOMETRY_ERRORS, str(exc)), str(exc)
    else:
        for name in TOPOLOGY:
            assert _same(getattr(mesh, name), getattr(oracle, name)), name


def test_first_face_with_either_fault_named(cube2):
    """The loop finds a face in no cell and an interior face with equal signs
    in one pass over the faces; faces 0-3 and 8-11 are on the boundary, 4-7
    inside."""
    for flip, drop, first in ((4, 8, "interior face 4 must have opposite orientation signs"),
                              (5, 0, "face 0 belongs to no cell")):
        v, faces, cells = _raw(cube2)
        c = cube2.face_cells[flip, 0]
        cells[c] = [-s if abs(s) == flip + 1 else s for s in cells[c]]
        c = cube2.face_cells[drop, 0]
        cells[c] = [s for s in cells[c] if abs(s) != drop + 1]
        for build in (topology_loop, PolyMesh):
            with pytest.raises(MeshError, match=f"^{first}$"):
                build(v, faces, cells)


def test_cell_listing_a_face_twice_rejected(cube1):
    v, faces, cells = _raw(cube1)
    faces.append([0, 1, 3])          # a triangle in the x = 0 face, listed as +f and -f
    cells[0] += [7, -7]
    assert topology_loop(v, faces, cells).face_cells[6].tolist() == [0, 0]
    with pytest.raises(MeshError, match=r"^cell 0 lists face 6 twice$"):
        PolyMesh(v, faces, cells)
    v, faces, cells = _raw(cube1)
    cells[0].append(cells[0][0])     # face 1 again, with the same sign
    with pytest.raises(MeshError, match="interior face 1 must have opposite orientation signs"):
        topology_loop(v, faces, cells)
    with pytest.raises(MeshError, match=r"^cell 0 lists face 1 twice$"):
        PolyMesh(v, faces, cells)


def test_vertex_in_no_face_rejected(cube2, tmp_path):
    v, faces, cells = _raw(cube2)
    v = np.vstack([v, [0.5, 0.5, 2.0]])
    assert len(v) - len(topology_loop(v, faces, cells).edges) + len(faces) - len(cells) == 2
    with pytest.raises(MeshError, match=r"^vertex 27 belongs to no face$"):
        PolyMesh(v, faces, cells)
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    np.savetxt(tmp_path / "m.node", nodes)
    np.savetxt(tmp_path / "m.ele", np.array([[0, 1, 2, 3]]), fmt="%d")
    with pytest.raises(MeshError, match=r"^vertex 4 belongs to no face$"):
        load_mesh(str(tmp_path / "m"), "tetra-list")


def test_non_integral_ids_rejected(cube1, tmp_path):
    v, faces, cells = _raw(cube1)
    bad = [list(c) for c in cells]
    bad[0][2] = 2.5                  # was truncated to face 1, sign +1
    with pytest.raises(MeshError, match=r"^cell 0: face ids must be integers$"):
        PolyMesh(v, faces, bad)
    bad = [list(f) for f in faces]
    bad[3][1] = 0.25                 # was truncated to vertex 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": v.tolist(), "faces": bad, "cells": cells}))
    with pytest.raises(MeshError, match=r"^face 3: vertex ids must be integers$"):
        load_mesh(str(path))
    mesh = PolyMesh(v, [[float(i) for i in f] for f in faces], [[float(i) for i in c] for c in cells])
    for name in TOPOLOGY:
        assert _same(getattr(mesh, name), getattr(cube1, name)), name


def _with(rows, i, j, value):
    """A copy of `rows` with rows[i][j] set to `value`."""
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return rows


# edits of the unit cube's face loops and signed cells, and the error they raise
MALFORMED = {
    "no-faces": (lambda f, c: ([], []), "the mesh has no faces"),
    "no-cells": (lambda f, c: (f, []), "the mesh has no cells"),
    "no-list": (lambda f, c: (5, c), "the faces must be a list of vertex id lists"),
    "string-id": (lambda f, c: (_with(f, 3, 1, "0"), c), "face 3: vertex ids must be integers"),
    "none-id": (lambda f, c: (f, _with(c, 0, 2, None)), "cell 0: face ids must be integers"),
    "nested-row": (lambda f, c: (_with(f, 2, 0, [1, 2]), c), "face 2: vertex ids must be integers"),
    "huge-id": (lambda f, c: (_with(f, 5, 2, 10 ** 30), c), "face 5: vertex ids must be integers"),
}


@pytest.mark.parametrize("route", ["PolyMesh", "load_mesh", "cli"])
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_id_lists_raise_a_mesh_error(name, route, cube1, tmp_path, capsys):
    """Missing rows and ids that are not integral numbers are a `MeshError`
    naming the first offending face or cell, not numpy's TypeError or
    ValueError, and `vemflow mesh check` reports it in one line."""
    v, faces, cells = _raw(cube1)
    edit, message = MALFORMED[name]
    faces, cells = edit(faces, cells)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": v.tolist(), "faces": faces, "cells": cells}))
    if route == "cli":
        capsys.readouterr()
        assert main(["mesh", "check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(MeshError, match=f"^{message}$"):
        PolyMesh(v, faces, cells) if route == "PolyMesh" else load_mesh(str(path))


COORDINATES = "coordinates must be three integer or floating numbers"
# edits of the unit cube's vertex rows, and the error they raise
MALFORMED_VERTICES = {
    "ragged-row": (lambda v: v[:3] + [[0.0, 1.0]] + v[4:], f"vertex 3: {COORDINATES}"),
    "string": (lambda v: _with(v, 2, 1, "a"), f"vertex 2: {COORDINATES}"),
    "numeric-string": (lambda v: _with(v, 5, 0, "1"), f"vertex 5: {COORDINATES}"),
    "none": (lambda v: _with(v, 1, 0, None), f"vertex 1: {COORDINATES}"),
    "nested": (lambda v: _with(v, 4, 2, [1, 2]), f"vertex 4: {COORDINATES}"),
    "two-columns": (lambda v: [r[:2] for r in v], f"vertex 0: {COORDINATES}"),
    "no-list": (lambda v: 5, r"vertices must be an \(n, 3\) array"),
    "empty": (lambda v: [], r"vertices must be an \(n, 3\) array"),
    "complex-array": (lambda v: np.array(v, dtype=complex), f"vertex 0: {COORDINATES}"),
    "python-complex": (lambda v: _with(v, 7, 1, 1j), f"vertex 7: {COORDINATES}"),
}
# inputs that JSON cannot hold, which only the constructor can be given
NOT_JSON = {"complex-array", "python-complex"}


@pytest.mark.parametrize("name,route", [(name, route) for name in MALFORMED_VERTICES
                                        for route in ("PolyMesh", "load_mesh", "cli")
                                        if route == "PolyMesh" or name not in NOT_JSON])
def test_malformed_vertices_raise_a_mesh_error(name, route, cube1, tmp_path, capsys):
    """Vertices that are not rows of three integer or floating numbers are a
    `MeshError` naming the first offending vertex, as malformed ids are: not
    numpy's ValueError or a TypeError, not a numeric string parsed, not a
    complex coordinate cut to its real part."""
    v, faces, cells = _raw(cube1)
    edit, message = MALFORMED_VERTICES[name]
    vertices = edit(v.tolist())
    if route == "PolyMesh":
        with pytest.raises(MeshError, match=f"^{message}$"):
            PolyMesh(vertices, faces, cells)
        return
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "faces": faces, "cells": cells}))
    if route == "cli":
        capsys.readouterr()
        assert main(["mesh", "check", str(path)]) == 2
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        return
    with pytest.raises(MeshError, match=f"^{message}$"):
        load_mesh(str(path))


NODES = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
# (.node, .ele) contents of a tetra-list pair, None for a missing file, and the error they raise
BAD_TETRA_LISTS = {
    "missing": (NODES, None, "cannot parse tetra-list files at "),
    "not-a-number": ("0 0 0\n1 0 x\n0 1 0\n0 0 1\n", "0 1 2 3\n", "cannot parse tetra-list files at "),
    "empty-node": ("", "0 1 2 3\n", "cannot parse tetra-list files at .*input contained no data"),
    "empty-ele": (NODES, "", "cannot parse tetra-list files at .*input contained no data"),
    "node-columns": ("0 0\n1 0\n0 1\n0 0\n", "0 1 2 3\n",
                     r"tetra-list files must be \(x y z\) and 4 vertex ids per line"),
    "ele-columns": (NODES, "0 1 2\n", r"tetra-list files must be \(x y z\) and 4 vertex ids per line"),
    "id-too-large": (NODES, "0 1 2 4\n", "tetra-list: vertex index out of range"),
    "negative-id": (NODES, "0 1 2 -1\n", "tetra-list: vertex index out of range"),
}


@pytest.mark.parametrize("name", BAD_TETRA_LISTS)
def test_bad_tetra_list_files_raise_a_mesh_error(name, tmp_path):
    """Unreadable, misshapen and out-of-range tetra-list files are a
    `MeshError` alone: an empty file leaks no numpy warning."""
    node, ele, message = BAD_TETRA_LISTS[name]
    (tmp_path / "m.node").write_text(node)
    if ele is not None:
        (tmp_path / "m.ele").write_text(ele)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MeshError, match=message):
            load_mesh(str(tmp_path / "m.node"), "tetra-list")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("text", [None, "{", '{"vertices": [[0, 0, 0]]'])
def test_unreadable_json_mesh_is_rejected(text, tmp_path):
    """A missing file and one that is no JSON are a `MeshError`."""
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(MeshError, match=f"^cannot parse mesh file {re.escape(str(path))}: "):
        load_mesh(str(path))


def test_unknown_mesh_format_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="^unknown mesh format 'off'$"):
        load_mesh(str(tmp_path / "m.off"), "off")


def test_json_mesh_that_is_no_object_is_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("7")
    with pytest.raises(MeshError, match=r"lacks 'vertices'$"):
        load_mesh(str(path))


def test_public_lists_view_the_flat_arrays(cube3, tets2, voronoi_cell):
    """The per-entity lists are slices of one flat array each, not copies."""
    for mesh in (cube3, tets2, voronoi_cell):
        loop, _, _, _, _ = mesh._face_loop
        _, inc_face, inc_sign = mesh._incidence
        for pieces, flat in ((mesh.faces, loop), ([f for f, _ in mesh.cells], inc_face),
                             ([s for _, s in mesh.cells], inc_sign),
                             ([e for e, _ in mesh.face_edges], mesh._loop_edges)):
            assert all(np.shares_memory(p, flat) for p in pieces)
        for pieces in (mesh.cell_vertices, mesh.cell_edges, [d for _, d in mesh.face_edges]):
            base = pieces[0].base
            assert all(p.base is base for p in pieces) and len(base) == sum(map(len, pieces))


@pytest.mark.parametrize("reverse", [False, True])
def test_face_given_twice_rejected(reverse, cube2):
    """An interior face whose second cell lists a copy of its loop (the same
    loop, or reversed and rotated with the sign flipped) would become two
    boundary faces, and Dirichlet DoFs would land inside the domain."""
    v, faces, cells = _raw(cube2)
    f = 4                            # interior: faces 4-7 are inside
    c = int(cube2.face_cells[f, 1])
    faces.append(list(np.roll(faces[f], 1)[::-1]) if reverse else list(faces[f]))
    cells[c] = [(-1 if reverse else 1) * int(np.sign(s)) * len(faces) if abs(s) == f + 1 else s
                for s in cells[c]]
    assert np.count_nonzero(topology_loop(v, faces, cells).boundary_face) == 26
    with pytest.raises(MeshError, match=rf"^faces {f} and {len(faces) - 1} have the same vertex set$"):
        PolyMesh(v, faces, cells)



def _arrays(obj, seen):
    """Every ndarray reachable from obj through attributes, dataclass
    fields, lists, tuples and dicts, each object visited once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _arrays(x, seen)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays(x, seen)
    elif hasattr(obj, "__dict__") and not callable(obj):
        yield from _arrays(vars(obj), seen)


@pytest.mark.parametrize("mesh,k", [(generate_tetra_mesh(1), 2), (generate_structured_cubes(2), 3)],
                         ids=["tets1-k2", "cubes2-k3"])
def test_mesh_dof_map_and_face_projections_are_read_only(mesh, k):
    """No array that a mesh, its DoF map or its face projections hold takes
    a write, so none can fall out of step with what was built from it."""
    maps = build_dof_maps(mesh, k)
    _, faceprojs = build_projections(mesh, maps[0])
    arrays = list(_arrays((mesh, maps, faceprojs), set()))
    assert len(arrays) > 100
    assert [a.shape for a in arrays if a.flags.writeable] == []
    for a in (mesh.vertices, mesh.face_stack.normal, maps[0].groups[0].slots, faceprojs[0].l2):
        with pytest.raises(ValueError):
            a.flat[0] = 0


def test_mesh_copies_the_callers_vertices():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = PolyMesh(verts, [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]], [[1, 2, 3, 4]])
    verts[0, 0] = 0.5
    assert verts.flags.writeable and mesh.vertices[0, 0] == 0.0
