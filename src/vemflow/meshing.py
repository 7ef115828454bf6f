"""Polyhedral mesh representation, ingestion, structured generation and
quality diagnostics.

A mesh stores vertices, oriented face loops and cells as signed face lists
(sign +1 when the stored loop is counterclockwise seen from outside the
cell).  Edges are derived from the face loops with the canonical key
(min vertex, max vertex); they are never stored in input files.  Meshes are
immutable: every array a mesh holds, the vertices a copy of the caller's,
is made read-only as it is built, so it is safe to share across workers.

`PolyMesh` is built one way, without per-entity loops: the faces are parsed
into one flat loop array and the signed cells into one flat cell-face
incidence, and the checks, the edges, the face-cell incidence, the boundary
flags, the sorted cell vertex and edge lists and the geometry (one row per
loop position and one per sub-tetrahedron, reduced per entity) all derive
from these two.  The lists `faces`, `cells`, `face_edges`, `cell_vertices`
and `cell_edges` are views of flat arrays.  The geometry is held once, as
stacked fields: `face_stack` (a `FaceGeom` of arrays with one row per face)
and `cell_stack` (a `CellGeom`, one row per cell); an entity's values are
its rows.  `face_groups` and `cell_groups` split the faces by vertex count
and the cells by face layout for the batched kernels.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


PLANARITY_RTOL = 1e-9


def raise_first(bad: np.ndarray, message, error=MeshError, ids=None) -> None:
    """Raise `error(message(i))` for the first entity i flagged in `bad`, as a
    loop over the entities in order would; `ids` maps positions in `bad` to
    entity ids.  The exception carries the id as `entity`."""
    if np.any(bad):
        i = int(np.argmax(bad)) if ids is None else int(ids[np.argmax(bad)])
        exc = error(message(i))
        exc.entity = i
        raise exc


def _diameters(vertices: np.ndarray, flat: np.ndarray, start: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """Largest vertex distance of each entity whose vertex ids are
    flat[start:start + size]; shorter rows are padded with their last id."""
    idx = start[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
    P = vertices[flat[idx]]
    return np.linalg.norm(P[:, :, None] - P[:, None], axis=-1).max(axis=(1, 2))


def _segments(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment id and offset within it of each position of segments of
    lengths `sizes` laid end to end."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return seg, np.arange(len(seg)) - (np.cumsum(sizes) - sizes)[seg]


def read_only(*objs) -> None:
    """Make each array among `objs` read-only, so that a write into it raises
    `ValueError`; other objects are left alone."""
    for a in objs:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


def _pieces(flat: np.ndarray, start: np.ndarray) -> list[np.ndarray]:
    """The views of `flat` from each offset in `start` to the next, or to its
    end; `flat` is made read-only first, so the views are too."""
    read_only(flat)
    b = start.tolist() + [len(flat)]
    return [flat[i:j] for i, j in zip(b[:-1], b[1:])]


def by_appearance(keys: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys in order of first appearance: the position of
    each one's first occurrence, in that order, and the number of every key."""
    _, first, inverse = np.unique(keys, axis=axis, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.ravel()]


def _numbers(x) -> np.ndarray | None:
    """`x` as an array when it holds only integer or floating numbers, else
    None: ragged rows, strings, None and complex numbers are no such array."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):        # ragged rows
        return None
    return a if a.dtype.kind in "iuf" else None


def _integral(ids) -> bool:
    """Whether `ids` is a flat list of integral numbers that int64 holds; 3.0 is one."""
    a = _numbers(ids)
    flat = a is not None and a.ndim == 1
    return flat and bool(np.all(np.isfinite(a) & (a == np.round(a)) & (np.abs(a) < 2.0 ** 63)))


def _parse_vertices(vertices) -> np.ndarray:
    """The vertex coordinates as a new float array (n, 3).  A vertex that is
    not three integer or floating numbers raises `MeshError`, naming the
    first such vertex; so do vertices that are no list of rows."""
    V = _numbers(vertices)
    if V is None or V.shape[1:] != (3,):
        if isinstance(vertices, (list, tuple)) or getattr(vertices, "ndim", 0):
            raise_first(np.array([getattr(_numbers(v), "shape", None) != (3,) for v in vertices]),
                        lambda v: f"vertex {v}: coordinates must be three integer or floating numbers")
        raise MeshError("vertices must be an (n, 3) array")
    return np.array(V, dtype=float)


def _parse_ids(rows, entity: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The ids of `rows`, one row per `entity`, laid end to end, and the row
    lengths.  Rows that are no list, no rows, or a row that is not a flat
    list of integral numbers raise `MeshError`, naming the first such row."""
    if not isinstance(rows, (list, tuple, np.ndarray)):
        raise MeshError(f"the {entity}s must be a list of {kind} id lists")
    if len(rows) == 0:
        raise MeshError(f"the mesh has no {entity}s")
    try:
        flat = np.concatenate(rows)
    except (TypeError, ValueError):
        flat = None
    if flat is None or not _integral(flat):
        raise_first(np.array([not _integral(r) for r in rows]),
                    lambda i: f"{entity} {i}: {kind} ids must be integers")
    return flat.astype(int), np.array([len(r) for r in rows], dtype=int)


@dataclass
class CellGeom:
    """Cell geometry, one row per cell."""

    h: np.ndarray
    volume: np.ndarray
    barycenter: np.ndarray


@dataclass
class FaceGeom:
    """Face geometry, one row per face."""

    h: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    normal: np.ndarray   # intrinsic normal of the stored loop (right-hand rule)
    tau1: np.ndarray     # normalized (v1 - v0) of the loop
    tau2: np.ndarray     # normal /\ tau1


class PolyMesh:
    """Polyhedral mesh with derived topology and geometric caches."""

    def __init__(self, vertices, faces, signed_cells):
        """Parse the faces into one flat loop and the signed cells into one
        flat cell-face incidence, and derive and check the topology and the
        geometry from these.  Each check names the first offending entity in
        the order a loop over the entities would meet it."""
        V = self.vertices = _parse_vertices(vertices)            # a copy: it is made read-only
        raise_first(~np.isfinite(V).all(axis=1), lambda v: f"vertex {v} has a non-finite coordinate")
        nv = len(V)
        loop, sizes = _parse_ids(faces, "face", "vertex")
        signed, n_inc = _parse_ids(signed_cells, "cell", "face")
        inc_cell, _ = _segments(n_inc)
        raise_first(signed == 0, lambda c: "cell face ids are signed and 1-based; 0 is invalid",
                    ids=inc_cell)
        inc_face, inc_sign = np.abs(signed) - 1, np.sign(signed)
        nf, nc = len(sizes), len(n_inc)
        owner, _ = _segments(sizes)                           # face of each loop position
        by_vertex = np.lexsort((loop, owner))
        repeated = owner[1:][(np.diff(loop[by_vertex]) == 0) & (np.diff(owner) == 0)]
        bad_loop = (sizes < 3) | (np.bincount(repeated, minlength=nf) > 0)
        out = np.bincount(owner, (loop < 0) | (loop >= nv), minlength=nf) > 0
        raise_first(bad_loop | out, lambda f: f"face {f} must be a loop of >= 3 distinct vertices"
                    if bad_loop[f] else f"face {f}: vertex index out of range")
        sorted_loops = np.full((nf, sizes.max()), -1)        # padded past a face's last vertex
        sorted_loops[owner, _segments(sizes)[1]] = loop[by_vertex]
        first, same = by_appearance(sorted_loops, axis=0)
        raise_first(first[same] != np.arange(nf),
                    lambda f: f"faces {first[same[f]]} and {f} have the same vertex set")
        out = np.bincount(inc_cell, inc_face >= nf, minlength=nc) > 0
        raise_first((n_inc < 4) | out, lambda c: f"cell {c}: face index out of range" if n_inc[c] >= 4
                    else f"cell {c} must have >= 4 faces")
        pairs = np.sort(inc_cell * nf + inc_face)             # (cell, face) keys, ascending
        twice = pairs[1:][np.diff(pairs) == 0]
        if len(twice):
            raise MeshError(f"cell {twice[0] // nf} lists face {twice[0] % nf} twice")
        count = np.bincount(inc_face, minlength=nf)
        slot = np.empty_like(inc_face)                        # rank among the face's incidences
        slot[np.argsort(inc_face, kind="stable")] = _segments(count)[1]
        raise_first(slot > 1, lambda f: f"non-manifold face {f}: more than 2 incident cells",
                    ids=inc_face)
        self.face_cells = np.full((nf, 2), -1, dtype=int)
        self.face_cell_signs = np.zeros((nf, 2), dtype=int)
        self.face_cells[inc_face, slot] = inc_cell
        self.face_cell_signs[inc_face, slot] = inc_sign
        raise_first((count == 0) | ((count == 2) & (self.face_cell_signs.prod(axis=1) != -1)),
                    lambda f: f"face {f} belongs to no cell" if count[f] == 0
                    else f"interior face {f} must have opposite orientation signs")
        raise_first(np.bincount(loop, minlength=nv) == 0, lambda v: f"vertex {v} belongs to no face")

        # edges (min vertex, max vertex), numbered in order of first appearance along the loops
        start = np.cumsum(sizes) - sizes
        nxt = np.arange(len(loop)) + 1                        # next position in its loop
        nxt[start + sizes - 1] = start
        lo, hi = np.minimum(loop, loop[nxt]), np.maximum(loop, loop[nxt])
        first, self._loop_edges = by_appearance(lo * nv + hi)        # by loop position
        self.edges = np.stack([lo, hi], axis=1)[first]
        ne = len(first)
        self.boundary_face = self.face_cells[:, 1] < 0
        self.boundary_vertex = np.bincount(loop, self.boundary_face[owner], minlength=nv) > 0
        self.boundary_edge = np.bincount(self._loop_edges, self.boundary_face[owner], minlength=ne) > 0
        self._face_loop = (loop, start, sizes, owner, nxt)
        self._incidence = (inc_cell, inc_face, inc_sign)

        # sub-tetrahedra: the loop positions of each cell's faces, cell by cell
        inc, i = _segments(sizes[inc_face])
        base = start[inc_face[inc]]
        sub_cell = inc_cell[inc]
        cv = np.unique(sub_cell * nv + loop[base + i])        # (cell, vertex) keys, ascending
        ce = np.unique(sub_cell * ne + self._loop_edges[base + i])
        cv_bounds = np.searchsorted(cv, nv * np.arange(nc + 1))
        cv %= nv
        self.faces = _pieces(loop, start)
        self.cells = list(zip(*(_pieces(x, np.cumsum(n_inc) - n_inc) for x in (inc_face, inc_sign))))
        self.face_edges = list(zip(*(_pieces(x, start)
                                     for x in (self._loop_edges, np.where(loop < loop[nxt], 1, -1)))))
        self.cell_vertices = _pieces(cv, cv_bounds[:-1])
        self.cell_edges = _pieces(ce % ne, np.searchsorted(ce, ne * np.arange(nc)))
        self._cell_sizes = np.diff(cv_bounds)                 # vertex count of each cell

        # geometry: one row per loop position (the fan triangle about the
        # face's vertex mean) and one per sub-tetrahedron {cell vertex mean,
        # face centroid, loop edge}, reduced per entity
        length = np.linalg.norm(V[self.edges[:, 1]] - V[self.edges[:, 0]], axis=1)
        raise_first(length <= 0, lambda e: f"degenerate edge {e} (vertices "
                     f"{self.edges[e, 0]}, {self.edges[e, 1]}) of zero length")

        # faces: fan triangles {vertex mean, loop[i], loop[i+1]}
        ctr0 = np.add.reduceat(V[loop], start) / sizes[:, None]
        rel = V[loop] - ctr0[owner]
        crosses = np.cross(rel, rel[nxt])
        nrm = np.add.reduceat(crosses, start)
        a2 = np.linalg.norm(nrm, axis=1)
        raise_first(a2 <= 0, lambda f: f"face {f} has zero area")
        normal = nrm / a2[:, None]
        # signed fan areas about the vertex mean; exact for planar
        # star-shaped faces (non-planarity is rejected below)
        fan = 0.5 * np.einsum("ij,ij->i", crosses, normal[owner])
        centroid = (np.add.reduceat(fan[:, None] * (ctr0[owner] + (rel + rel[nxt]) / 3.0), start)
                    / np.add.reduceat(fan, start)[:, None])
        tau1 = V[loop[start + 1]] - V[loop[start]]
        tau1 -= np.einsum("ij,ij->i", tau1, normal)[:, None] * normal
        tau1 /= np.linalg.norm(tau1, axis=1)[:, None]
        fs = self.face_stack = FaceGeom(_diameters(V, loop, start, sizes), a2 / 2.0, centroid,
                                        normal, tau1, np.cross(normal, tau1))

        # cells: sub-tetrahedra {vertex mean, face centroid, a, b} over the
        # loop edges (a, b) of each face, taken in the cell's outward order
        n = sizes[inc_face[inc]]
        rev = inc_sign[inc] < 0                # a reversed loop runs l[n-1], ..., l[0]
        cur = np.where(rev, n - 1 - i, i)
        nxt_pos = np.where(rev, (2 * n - 2 - i) % n, (i + 1) % n)
        self.subtets = np.stack([inc_face[inc], loop[base + cur], loop[base + nxt_pos]], axis=1)
        self.subtet_start = np.searchsorted(sub_cell, np.arange(nc + 1))
        xref = (np.add.reduceat(V[cv], cv_bounds[:-1]) / self._cell_sizes[:, None])[sub_cell]
        cf, a, b = centroid[self.subtets[:, 0]], V[self.subtets[:, 1]], V[self.subtets[:, 2]]
        v6 = np.einsum("ij,ij->i", np.cross(cf - xref, a - xref), b - xref) / 6.0
        vol = np.bincount(sub_cell, v6, minlength=nc)
        raise_first(vol <= 0, lambda c: f"inverted cell {c}: negative volume by "
                     "divergence-theorem formula")
        mom = np.stack([np.bincount(sub_cell, v6 * x, minlength=nc)
                        for x in ((xref + cf + a + b) / 4.0).T], axis=1)
        cs = self.cell_stack = CellGeom(_diameters(V, cv, cv_bounds[:-1], self._cell_sizes), vol,
                                        mom / vol[:, None])

        dist = np.abs(np.einsum("ij,ij->i", V[loop] - centroid[owner], normal[owner]))
        dmax = np.maximum.reduceat(dist, start)
        raise_first(dmax > PLANARITY_RTOL * fs.h, lambda f: f"non-planar face {f}: max deviation "
                     f"{dmax[f]:.3e} exceeds {PLANARITY_RTOL:g}*h_f")
        flux = (inc_sign * fs.area[inc_face])[:, None] * normal[inc_face]
        closure = np.stack([np.bincount(inc_cell, x, minlength=nc) for x in flux.T], axis=1)
        raise_first(np.linalg.norm(closure, axis=1) > 1e-8 * cs.h ** 2,
                     lambda c: f"cell {c} is not closed: inconsistent face orientations")
        read_only(V, self.face_cells, self.face_cell_signs, self.edges, self.boundary_face, self.boundary_vertex,
                  self.boundary_edge, self.subtets, self.subtet_start, self._cell_sizes, *self._face_loop,
                  *self._incidence, *vars(fs).values(), *vars(cs).values())

    # -- counts and derived quantities ----------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def face_groups(self, faces=None) -> list[np.ndarray]:
        """Face ids grouped by vertex count, ascending, each group in index
        order: the unit of the batched face kernels.  `faces` restricts the
        grouping to a subset."""
        faces = np.arange(self.n_faces) if faces is None else np.asarray(faces, dtype=int)
        sizes = self._face_loop[2][faces]
        return [faces[sizes == n] for n in np.unique(sizes)]

    def cell_groups(self) -> list[np.ndarray]:
        """Cell ids grouped by their vertex count and the vertex counts of their
        faces in local order, which fix the local edge and DoF counts, each
        group in index order: the unit of the batched cell kernel."""
        inc_cell, inc_face, _ = self._incidence
        local = _segments(np.bincount(inc_cell))[1]
        keys = np.full((self.n_cells, local.max() + 2), -1)    # padded past a cell's last face
        keys[:, 0] = self._cell_sizes
        keys[inc_cell, local + 1] = self._face_loop[2][inc_face]
        first, key = by_appearance(keys, axis=0)
        return [np.flatnonzero(key == g) for g in range(len(first))]

    def face_closure(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex ids and the edge ids of the loops of `faces`, with repeats."""
        on = np.isin(self._face_loop[3], faces)
        return self._face_loop[0][on], self._loop_edges[on]

    def face_loops(self, faces: np.ndarray) -> np.ndarray:
        """Vertex loops of faces with one vertex count, stacked to (nf, nv)."""
        loop, start, sizes, _, _ = self._face_loop
        return loop[start[faces][:, None] + np.arange(sizes[faces[0]])]

    def euler_number(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces - self.n_cells

    # -- I/O -------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertices.tolist(),
            "faces": [f.tolist() for f in self.faces],
            "cells": [((f + 1) * s).tolist() for f, s in self.cells],
        }

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


def load_mesh(path: str, fmt: str = "json-poly") -> PolyMesh:
    """Load a mesh file.

    json-poly: {"vertices": [[x,y,z]...], "faces": [[v...]...],
                "cells": [[+-(f+1)...]...]}.
    tetra-list: `path`.node (x y z per line) + `path`.ele (4 vertex ids per
                line, 0-based); `path` may also point at the .node file.
    """
    if fmt == "json-poly":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MeshError(f"cannot parse mesh file {path}: {exc}") from exc
        for key in ("vertices", "faces", "cells"):
            if not isinstance(data, dict) or key not in data:
                raise MeshError(f"mesh file {path} lacks '{key}'")
        return PolyMesh(data["vertices"], data["faces"], data["cells"])
    if fmt == "tetra-list":
        base = path[:-5] if path.endswith(".node") else path
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)     # numpy's warning of an empty file
                nodes = np.loadtxt(base + ".node", dtype=float, ndmin=2)
                eles = np.loadtxt(base + ".ele", dtype=int, ndmin=2)
        except (OSError, ValueError, UserWarning) as exc:
            raise MeshError(f"cannot parse tetra-list files at {base}: {exc}") from exc
        if nodes.shape[1] != 3 or eles.shape[1] != 4:
            raise MeshError("tetra-list files must be (x y z) and 4 vertex ids per line")
        if eles.min() < 0 or eles.max() >= len(nodes):
            raise MeshError("tetra-list: vertex index out of range")
        return mesh_from_tets(nodes, eles)
    raise ValueError(f"unknown mesh format {fmt!r}")


def mesh_from_tets(nodes: np.ndarray, tets: np.ndarray) -> PolyMesh:
    """Build a PolyMesh from a tetrahedron list, deduplicating shared faces.
    Faces are numbered in order of first appearance, tet by tet, and stored
    outward for the first tet that lists them."""
    nodes = np.asarray(nodes, dtype=float)
    t = np.array(tets, dtype=int)
    v = nodes[t]
    flip = np.einsum("ij,ij->i", np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), v[:, 3] - v[:, 0]) < 0
    t[flip, 2:] = t[flip, 3:1:-1]
    # outward-oriented faces of the positively oriented tets
    loops = t[:, [0, 2, 1, 0, 1, 3, 1, 2, 3, 0, 3, 2]].reshape(-1, 3)
    first, face_id = by_appearance(np.sort(loops, axis=1), axis=0)
    sign = np.where(first[face_id] == np.arange(len(loops)), 1, -1)
    return PolyMesh(nodes, loops[first], (sign * (face_id + 1)).reshape(-1, 4))


def generate_structured_cubes(n: int) -> PolyMesh:
    """n^3 congruent cubes tiling [0,1]^3.  Faces are numbered by direction,
    x- then y- then z-constant, each loop counter-clockwise seen from the
    positive axis; cell (i, j, k) lists its +x, -x, +y, -y, +z, -z faces."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = np.arange(n + 1)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3) / n
    v = np.arange((n + 1) ** 3).reshape(n + 1, n + 1, n + 1)
    a, b = slice(0, n), slice(1, n + 1)
    faces = np.concatenate([
        np.stack([v[:, a, a], v[:, b, a], v[:, b, b], v[:, a, b]], axis=-1).reshape(-1, 4),
        np.stack([v[a, :, a], v[a, :, b], v[b, :, b], v[b, :, a]], axis=-1).transpose(1, 0, 2, 3).reshape(-1, 4),
        np.stack([v[a, a, :], v[b, a, :], v[b, b, :], v[a, b, :]], axis=-1).transpose(2, 0, 1, 3).reshape(-1, 4),
    ])
    # 1-based face ids on the grid of cells (i, j, k), per direction
    nx = (n + 1) * n * n
    X = 1 + np.arange(nx).reshape(n + 1, n, n)
    Y = 1 + nx + np.arange(nx).reshape(n + 1, n, n).transpose(1, 0, 2)
    Z = 1 + 2 * nx + np.arange(nx).reshape(n + 1, n, n).transpose(1, 2, 0)
    cells = np.stack([X[1:], -X[:-1], Y[:, 1:], -Y[:, :-1], Z[..., 1:], -Z[..., :-1]], axis=-1).reshape(-1, 6)
    return PolyMesh(pts, faces, cells)


_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def generate_tetra_mesh(n: int, jitter: float = 0.15, seed: int = 0) -> PolyMesh:
    """Tetrahedralization of [0,1]^3: 6 n^3 tetrahedra from the diagonal
    (Kuhn) subdivision of a jittered (n+1)^3 grid.

    Grid points interior to the cube are jittered in 3D, points on a boundary
    face within the face, points on a cube edge along the edge; corners stay
    fixed, so the mesh fills the cube exactly.  The shared main-diagonal
    pattern keeps face diagonals consistent across neighboring boxes; the
    moderate default jitter preserves shape regularity (no slivers).
    Deterministic for fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= jitter < 0.5:
        raise ValueError("jitter must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    grid = (n + 1,) * 3
    ijk = np.stack(np.unravel_index(np.arange((n + 1) ** 3), grid), axis=1)
    dp = rng.uniform(-jitter, jitter, ijk.shape) * (1.0 / n)
    pts = ijk.astype(float) / n + dp * ((0 < ijk) & (ijk < n))
    # box (i, j, k) and Kuhn path: corners base, + e_p0, + e_p0 + e_p1, + (1, 1, 1)
    steps = np.cumsum(np.eye(3, dtype=int)[list(_KUHN_PERMS)], axis=1)
    corners = np.concatenate([np.zeros((6, 1, 3), dtype=int), steps], axis=1)
    q = ijk[np.all(ijk < n, axis=1), None, None] + corners
    return mesh_from_tets(pts, np.ravel_multi_index(np.moveaxis(q, -1, 0), grid).reshape(-1, 4))


def mesh_size(mesh: PolyMesh) -> float:
    """Mesh size h = arithmetic mean of the cell diameters."""
    return float(np.mean(mesh.cell_stack.h))


@dataclass
class QualityReport:
    """Shape-regularity diagnostics.

    The pass/fail gate compares each cell's min(h_e/h_P, h_f/h_P) over its
    edges e and faces f against the threshold `rho`; `rho_hat` is the
    smallest over the mesh.  `ball_ratio` is the inscribed-ball-about-
    barycenter proxy radius over h_P per cell (a proxy for star-shapedness,
    reported but not gated: deciding exact star-shapedness is a nonconvex
    feasibility problem).
    """

    rho: float
    ball_ratio: np.ndarray
    rho_hat: float
    passed: bool
    failing_cells: list[int]


def quality_check(mesh: PolyMesh, rho: float) -> QualityReport:
    if not (np.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got rho = {rho}")
    inc_cell, inc_face, inc_sign = mesh._incidence
    fs, cs = mesh.face_stack, mesh.cell_stack
    length = np.linalg.norm(np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0], axis=1)
    shortest = np.minimum.reduceat(length[mesh._loop_edges], mesh._face_loop[1])   # per face
    cell_start = np.searchsorted(inc_cell, np.arange(mesh.n_cells))
    ratio = lambda x: np.minimum.reduceat(x, cell_start) / cs.h      # min over each cell's faces
    # stacked 1x3 by 3x1 products round as np.dot of each pair
    ball = (fs.centroid[inc_face] - cs.barycenter[inc_cell])[:, None] @ fs.normal[inc_face, :, None]
    ball_ratio = ratio(inc_sign * ball[:, 0, 0])
    per_cell = np.minimum(ratio(shortest[inc_face]), ratio(fs.h[inc_face]))
    failing = [int(i) for i in np.nonzero(per_cell < rho)[0]]
    return QualityReport(
        rho=rho,
        ball_ratio=ball_ratio,
        rho_hat=float(per_cell.min()),
        passed=not failing,
        failing_cells=failing,
    )
