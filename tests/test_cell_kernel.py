"""What the cell kernel stores for assembly, and what it calls to make it.

`consistency` and `pi_d_dof` are built once per class of translates, as
stacked read-only arrays that every member views.  The differential test
draws jittered tetrahedral meshes from a seeded generator and checks the
stored arrays against their per-cell forms (the per-strain sum of
eps^T Hq eps on the stored `pi_0grad` and `Hq`, bit for bit; Pi^D = D pi_d
on the DoFs against the per-cell loop's D, which it reproduces), and
against the per-cell loop `cell_projection_loop` within the bound of
test_batched.py.  The mass solves go through numpy.linalg, so
building the cell projections calls no scipy.linalg function; the face
kernel keeps its one `scipy.linalg.solve` per group of faces."""

import types

import numpy as np
import pytest
import scipy.linalg

from helpers import cell_projection_loop
from test_batched import _rel
from vemflow import projection
from vemflow.dofspace import build_dof_maps
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.projection import build_projections

_DRAW = np.random.default_rng(2205)
# (mesh, k): two jittered tetrahedral meshes per degree, seed and jitter drawn
CASES = [("tets", int(_DRAW.integers(1 << 16)), round(float(_DRAW.uniform(0.05, 0.2)), 3), k)
         for k in (2, 3, 4) for _ in range(2)] + [("cubes", 3, 0.0, k) for k in (2, 3, 4)]


def _mesh(name, n_or_seed, jitter):
    if name == "cubes":
        return generate_structured_cubes(n_or_seed)
    return generate_tetra_mesh(2, jitter=jitter, seed=n_or_seed)


def _per_strain(pr) -> np.ndarray:
    """eps^T Hq eps summed over the strains in row-major (i, j) order, with
    eps = (grad + grad^T) / 2 of the stored projected gradient."""
    g = pr.pi_0grad.reshape(3, 3, pr.Hq.shape[0], pr.ndof)
    cons = np.zeros((pr.ndof, pr.ndof))
    for i in range(3):
        for j in range(3):
            e = 0.5 * (g[i, j] + g[j, i])
            cons += e.T @ pr.Hq @ e
    return cons


@pytest.mark.parametrize("name,n_or_seed,jitter,k", CASES)
def test_stored_fields_match_their_per_cell_forms(name, n_or_seed, jitter, k):
    mesh = _mesh(name, n_or_seed, jitter)
    mapv = build_dof_maps(mesh, k)[0]
    projs, fps = build_projections(mesh, mapv)
    for c, pr in enumerate(projs):
        assert not pr.consistency.flags.writeable and not pr.pi_d_dof.flags.writeable
        assert np.array_equal(pr.consistency, _per_strain(pr)), c
        ref = cell_projection_loop(mesh, mapv, c, fps)
        assert _rel(pr.pi_d_dof @ ref.D, ref.D) <= 1e-10, c
        for field in ("consistency", "pi_d_dof"):
            assert _rel(getattr(pr, field), getattr(ref, field)) <= 1e-10, (c, field)


def test_cubes6_store_one_consistency_and_pi_d_dof_per_class():
    mesh = generate_structured_cubes(6)
    projs, _ = build_projections(mesh, build_dof_maps(mesh, 2)[0])
    assert len({id(p.consistency) for p in projs}) == 4
    assert len({id(p.pi_d_dof) for p in projs}) == 4


def _count_scipy_linalg(monkeypatch) -> list[str]:
    """The names of the scipy.linalg functions called from here on, through
    scipy.linalg or through the projection module's own names for them."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (scipy.linalg, projection):
        for name, fn in list(vars(module).items()):
            if isinstance(fn, types.FunctionType) and fn.__module__.startswith("scipy.linalg"):
                monkeypatch.setattr(module, name, counted(name, fn))
    return calls


@pytest.mark.parametrize("mesh", ["cubes6", "tets3"])
def test_cell_kernel_calls_no_scipy_linalg(mesh, monkeypatch):
    """The meshes of the cubes-stokes and tets-ns benchmark workloads at k = 2."""
    mesh = generate_structured_cubes(6) if mesh == "cubes6" else generate_tetra_mesh(3, seed=1)
    mapv = build_dof_maps(mesh, 2)[0]
    calls = _count_scipy_linalg(monkeypatch)
    fps = {}
    for faces in mesh.face_groups():
        fps.update(zip(faces.tolist(), projection.build_face_projections(mesh, faces, 2, mapv.edge_points)))
    assert calls == ["solve"] * len(mesh.face_groups())
    calls.clear()
    for g in mapv.groups:
        projection.build_cell_projection(mesh, mapv, g, fps)
    assert calls == []
