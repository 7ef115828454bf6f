"""The classes of translates of the projection kernels: each class's arrays
are built once, on its lowest-id member, and every member views them (see
`projection._translate_classes`).  The references are the per-entity loops
of helpers.py.  The bounds were fixed before the first run: every shared
array within 1e-12 of the loops' relative to its largest entry, the member
rule values within 1e-14 of the member's own basis at its own rule, and A1
within 1e-13 (test_pattern.py).  The unjittered tetrahedra run at k = 2, 3
only: at k = 4 a translated face's l2 differs from its own build by 5.6e-12
(and pi_0k by 2.3e-12), the round-off of the ill-conditioned degree-5 face
mass solve on geometry that differs in the last bits."""

import numpy as np
import pytest

from helpers import cell_projection_loop, cube_and_pyramids, face_projections_loop
from test_batched import CELL_FIELDS, _count_calls, _rel, assert_class_rule
from vemflow import polynomials
from vemflow import quadrature as quad
from vemflow.dofspace import build_dof_maps, cell_basis
from vemflow.meshing import PolyMesh, generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections, cell_rule_exactness

FACE_FIELDS = ("l2", "vals")


def _classes(projs, fps) -> tuple[int, int]:
    return len({id(pr.pi_0k) for pr in projs}), len({id(fp.l2) for fp in fps.values()})


def _classed_against_loops(mesh, k):
    """The classed build, checked field by field against the per-face and
    per-cell loops (the cell loop on the loop's face projections)."""
    mapv = build_dof_maps(mesh, k)[0]
    projs, fps = build_projections(mesh, mapv)
    fps_loop = {f: face_projections_loop(mesh, f, k, mapv.edge_points) for f in range(mesh.n_faces)}
    for f, fp in fps.items():
        for field in FACE_FIELDS:
            assert _rel(getattr(fp, field), getattr(fps_loop[f], field)) <= 1e-12, (f, field)
    for c, pr in enumerate(projs):
        ref = cell_projection_loop(mesh, mapv, c, fps_loop)
        for field in CELL_FIELDS:
            assert _rel(getattr(pr, field), getattr(ref, field)) <= 1e-12, (c, field)
    return projs, fps


def _rebuilt(mesh, faces=None, cells=None, vertices=None) -> PolyMesh:
    d = mesh.to_json_dict()
    return PolyMesh(d["vertices"] if vertices is None else vertices,
                    d["faces"] if faces is None else faces, d["cells"] if cells is None else cells)


def _alone(arrays: list, i: int) -> bool:
    """Whether entry i shares its array object with no other entry."""
    return sum(a is arrays[i] for a in arrays) == 1


@pytest.mark.parametrize("name,k,classes", [
    ("cubes3", 2, (4, 3)), ("cubes3", 3, (4, 3)), ("cubes3", 4, (4, 3)),
    ("tets2", 2, (22, 18)), ("tets2", 3, (22, 18)), ("mixed", 2, (7, 15)), ("mixed", 3, (7, 15)),
])
def test_classed_matches_per_entity_loops(name, k, classes):
    mesh = {"cubes3": lambda: generate_structured_cubes(3), "tets2": lambda: generate_tetra_mesh(2, jitter=0.0),
            "mixed": cube_and_pyramids}[name]()
    projs, fps = _classed_against_loops(mesh, k)
    assert _classes(projs, fps) == classes


def test_jittered_meshes_share_nothing():
    mesh = generate_tetra_mesh(2, seed=3)
    projs, fps = build_projections(mesh, build_dof_maps(mesh, 2)[0])
    assert _classes(projs, fps) == (mesh.n_cells, mesh.n_faces)
    for field in ("mono_int", "pi_d_dof", "pi_0grad", "rule_vals"):
        arrays = [getattr(pr, field) for pr in projs]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i]), field
    arrays = [fp.l2 for fp in fps.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


def test_rotated_loop_start_splits_its_face_and_cells():
    base = generate_structured_cubes(3)
    f = int(np.flatnonzero(~base.boundary_face)[0])
    faces = [loop.tolist() for loop in base.faces]
    faces[f] = faces[f][1:] + faces[f][:1]
    projs, fps = _classed_against_loops(_rebuilt(base, faces=faces), 2)
    assert _alone([fp.l2 for fp in fps.values()], f)
    for c in base.face_cells[f]:
        assert _alone([pr.pi_0k for pr in projs], c)


def test_reversed_face_with_flipped_signs_splits_its_face_and_cells():
    base = generate_structured_cubes(3)
    f = int(np.flatnonzero(~base.boundary_face)[0])
    d = base.to_json_dict()
    faces = [loop.tolist() for loop in base.faces]
    faces[f] = faces[f][::-1]
    cells = [[-s if abs(s) == f + 1 else s for s in row] for row in d["cells"]]
    projs, fps = _classed_against_loops(_rebuilt(base, faces=faces, cells=cells), 2)
    assert _alone([fp.l2 for fp in fps.values()], f)
    for c in base.face_cells[f]:
        assert _alone([pr.pi_0k for pr in projs], c)


def test_moved_vertex_splits_its_cells():
    base = generate_tetra_mesh(2, jitter=0.0)
    v = int(np.flatnonzero(~base.boundary_vertex)[0])
    vertices = base.vertices.copy()
    vertices[v, 0] += 1e-6 * base.cell_stack.h.min()
    mesh = _rebuilt(base, vertices=vertices)
    projs, fps = _classed_against_loops(mesh, 2)
    touched = [c for c in range(mesh.n_cells) if v in mesh.cell_vertices[c]]
    assert all(_alone([pr.pi_0k for pr in projs], c) for c in touched)
    assert _classes(projs, fps)[0] > 22


def test_local_edge_order_is_in_the_key():
    """Numbering the faces in another order renumbers the edges, so the
    cells of 2^3 cubes, translates in every vertex and face loop, list
    their edges (and hence their edge DoFs) in eight different local
    orders: eight classes, each matching the loops."""
    base = generate_structured_cubes(2)
    d = base.to_json_dict()
    perm = np.random.default_rng(0).permutation(base.n_faces)     # new face i is old face perm[i]
    new_id = np.argsort(perm)
    cells = [[int(np.sign(s)) * (int(new_id[abs(s) - 1]) + 1) for s in row] for row in d["cells"]]
    projs, fps = _classed_against_loops(_rebuilt(base, faces=[d["faces"][i] for i in perm], cells=cells), 2)
    assert _classes(projs, fps)[0] == 8


def test_edge_orientation_is_in_the_face_key():
    """Numbering the vertices in another order turns some edges round (an
    edge runs from its lower vertex id), so at k = 3 translated faces with
    equal loops order their edge points differently: more classes than on
    the ordered mesh, each matching the loops."""
    base = generate_structured_cubes(2)
    perm = np.random.default_rng(0).permutation(base.n_vertices)  # new vertex i is old vertex perm[i]
    new_id = np.argsort(perm)
    mesh = _rebuilt(base, vertices=base.vertices[perm], faces=[new_id[loop].tolist() for loop in base.faces])
    projs, fps = _classed_against_loops(mesh, 3)
    assert _classes(projs, fps)[1] > 3


def test_face_signs_are_in_the_key():
    """A cell whose face signs alone differ from its translates' (set on
    the incidence after construction, which no mesh check sees) is its own
    class: the kernel reads the signs for the divergence and the traces."""
    mesh = generate_structured_cubes(2)
    mapv = build_dof_maps(mesh, 2)[0]
    fids, signs = mesh.cells[1]
    mesh.cells[1] = (fids, -signs)
    projs, fps = build_projections(mesh, mapv)
    assert _alone([pr.pi_0k for pr in projs], 1)
    ref = cell_projection_loop(mesh, mapv, 1, fps)
    for field in ("div", "pi_0k", "pi_0grad"):
        assert _rel(getattr(projs[1], field), getattr(ref, field)) <= 1e-12, field


def test_cubes6_builds_four_cells_and_three_faces(monkeypatch):
    mesh = generate_structured_cubes(6)
    mapv = build_dof_maps(mesh, 2)[0]
    evals = _count_calls(monkeypatch, polynomials._MonomialBasis, "eval")
    projs, fps = build_projections(mesh, mapv)
    assert _classes(projs, fps) == (4, 3)
    assert len(evals) <= 16


def test_cubes6_makes_one_rule_per_class(monkeypatch):
    mesh = generate_structured_cubes(6)
    mapv = build_dof_maps(mesh, 2)[0]
    calls = _count_calls(monkeypatch, quad, "cell_quadrature")
    build_projections(mesh, mapv)
    assert len(calls) == 4


@pytest.mark.parametrize("k", [2, 3])
def test_member_rules_and_rule_values_are_their_own(k):
    """Every member's rule is its class representative's moved by the shift
    of its barycentre, which agrees with the rule quadrature makes for the
    member to round-off (see `assert_class_rule`), and the shared rule
    values are the member's own basis at its rule to round-off."""
    mesh = generate_structured_cubes(3)
    projs, _ = build_projections(mesh, build_dof_maps(mesh, k)[0])
    reps = {}
    for c, pr in enumerate(projs):
        assert_class_rule(mesh, projs, c, reps.setdefault(id(pr.pi_0k), c),
                          quad.cell_quadrature(mesh, c, cell_rule_exactness(k)))
        basis = cell_basis(mesh, c, k + 1)
        assert _rel(pr.rule_vals, basis.eval(pr.rule.points)[:, :polynomials.dim_poly(k, 3)]) <= 1e-14
    assert len(reps) == 4


@pytest.mark.parametrize("k", [2, 3, 4])
def test_jittered_cells_keep_their_own_rules(k):
    """Without translates every cell is its class's representative: its rule
    is the one quadrature makes for it, bit for bit, and held, not formed
    on each read."""
    mesh = generate_tetra_mesh(2, seed=3)
    projs, _ = build_projections(mesh, build_dof_maps(mesh, k)[0])
    for c, pr in enumerate(projs):
        assert_class_rule(mesh, projs, c, c, quad.cell_quadrature(mesh, c, cell_rule_exactness(k)))
        assert np.shares_memory(pr.rule.points, pr.rule.points)
