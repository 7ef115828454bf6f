"""Polyhedral mesh representation, ingestion, structured generation and
quality diagnostics.

A mesh stores vertices, oriented face loops and cells as signed face lists
(sign +1 when the stored loop is counterclockwise seen from outside the
cell).  Edges are derived from the face loops with the canonical key
(min vertex, max vertex); they are never stored in input files.  Meshes are
immutable after construction and safe to share read-only across workers.

Geometry is computed without per-entity loops, over flat arrays with one
row per face loop position (the fan triangles about each face's vertex
mean) and one per sub-tetrahedron {cell vertex mean, face centroid, loop
edge}, reduced per entity.  The per-entity records `edge_geom`, `face_geom`
and `cell_geom` view the stacked fields `face_stack` and `cell_stack`; the
sub-tetrahedra stay on the mesh for the cell rules.  `face_groups` splits
the faces by vertex count and `cell_groups` the cells by face layout for the
batched face and cell kernels.
"""

from __future__ import annotations

import json
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


# The per-entity records below; PolyMesh also keeps each one's fields stacked
# over all entities (`face_stack`, `cell_stack`) for the batched kernels.


@dataclass
class CellGeom:
    h: float
    volume: float
    barycenter: np.ndarray


@dataclass
class FaceGeom:
    h: float
    area: float
    centroid: np.ndarray
    normal: np.ndarray   # intrinsic normal of the stored loop (right-hand rule)
    tau1: np.ndarray     # normalized (v1 - v0) of the loop
    tau2: np.ndarray     # normal /\ tau1


@dataclass
class EdgeGeom:
    length: float
    tangent: np.ndarray  # unit, from min to max vertex id


class PolyMesh:
    """Polyhedral mesh with derived topology and geometric caches."""

    def __init__(self, vertices, faces, signed_cells):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        self.faces = [np.asarray(f, dtype=int) for f in faces]
        self.cells = []
        for c in signed_cells:
            c = np.asarray(c, dtype=int)
            if np.any(c == 0):
                raise MeshError("cell face ids are signed and 1-based; 0 is invalid")
            self.cells.append((np.abs(c) - 1, np.sign(c)))
        self._validate_indices()
        self._build_edges()
        self._build_incidence()
        self._build_geometry()
        self._validate_geometry()

    # -- construction helpers -------------------------------------------------

    def _validate_indices(self):
        nv = len(self.vertices)
        for i, f in enumerate(self.faces):
            if len(f) < 3 or len(np.unique(f)) != len(f):
                raise MeshError(f"face {i} must be a loop of >= 3 distinct vertices")
            if f.min() < 0 or f.max() >= nv:
                raise MeshError(f"face {i}: vertex index out of range")
        nf = len(self.faces)
        for i, (fids, _) in enumerate(self.cells):
            if len(fids) < 4:
                raise MeshError(f"cell {i} must have >= 4 faces")
            if fids.min() < 0 or fids.max() >= nf:
                raise MeshError(f"cell {i}: face index out of range")

    def _build_edges(self):
        key_to_id: dict[tuple[int, int], int] = {}
        face_edges = []
        for f in self.faces:
            eids = []
            dirs = []
            nv = len(f)
            for i in range(nv):
                a, b = int(f[i]), int(f[(i + 1) % nv])
                key = (min(a, b), max(a, b))
                if key not in key_to_id:
                    key_to_id[key] = len(key_to_id)
                eids.append(key_to_id[key])
                dirs.append(1 if a < b else -1)
            face_edges.append((np.array(eids), np.array(dirs)))
        self.edges = np.array(sorted(key_to_id, key=key_to_id.get), dtype=int).reshape(-1, 2)
        self.face_edges = face_edges
        self._loop_edges = np.concatenate([eids for eids, _ in face_edges])   # by loop position

    def _build_incidence(self):
        nf = len(self.faces)
        self.face_cells = np.full((nf, 2), -1, dtype=int)
        self.face_cell_signs = np.zeros((nf, 2), dtype=int)
        for ci, (fids, signs) in enumerate(self.cells):
            for f, s in zip(fids, signs):
                slot = 0 if self.face_cells[f, 0] < 0 else 1
                if slot == 1 and self.face_cells[f, 1] >= 0:
                    raise MeshError(f"non-manifold face {f}: more than 2 incident cells")
                self.face_cells[f, slot] = ci
                self.face_cell_signs[f, slot] = s
        for f in range(nf):
            if self.face_cells[f, 0] < 0:
                raise MeshError(f"face {f} belongs to no cell")
            if self.face_cells[f, 1] >= 0:
                if self.face_cell_signs[f, 0] * self.face_cell_signs[f, 1] != -1:
                    raise MeshError(f"interior face {f} must have opposite orientation signs")
        self.boundary_face = self.face_cells[:, 1] < 0
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_edge = np.zeros(len(self.edges), dtype=bool)
        for f in np.nonzero(self.boundary_face)[0]:
            self.boundary_vertex[self.faces[f]] = True
            self.boundary_edge[self.face_edges[f][0]] = True
        # cell -> vertices/edges (sorted, deterministic)
        self.cell_vertices = []
        self.cell_edges = []
        for fids, _ in self.cells:
            vs = np.unique(np.concatenate([self.faces[f] for f in fids]))
            es = np.unique(np.concatenate([self.face_edges[f][0] for f in fids]))
            self.cell_vertices.append(vs)
            self.cell_edges.append(es)

    def _build_geometry(self):
        """Edge, face and cell geometry over flat arrays: one row per loop
        position (fan triangle about the face's vertex mean) and one per
        sub-tetrahedron {cell vertex mean, face centroid, loop edge}.  Each
        check raises for the first offending entity, in the order edges,
        face areas, cell volumes."""
        V = self.vertices
        vec = V[self.edges[:, 1]] - V[self.edges[:, 0]]
        length = np.linalg.norm(vec, axis=1)
        raise_first(length <= 0, lambda e: f"degenerate edge {e} (vertices "
                     f"{self.edges[e, 0]}, {self.edges[e, 1]}) of zero length")
        self.edge_geom = [EdgeGeom(*g) for g in zip(length.tolist(), vec / length[:, None])]

        # faces: fan triangles {vertex mean, loop[i], loop[i+1]}
        sizes = np.array([len(f) for f in self.faces])
        start = np.cumsum(sizes) - sizes
        loop = np.concatenate(self.faces)
        owner = np.repeat(np.arange(len(sizes)), sizes)       # face of each loop position
        nxt = np.arange(len(loop)) + 1                        # next position in its loop
        nxt[start + sizes - 1] = start
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
        self.face_stack = FaceGeom(_diameters(V, loop, start, sizes), a2 / 2.0, centroid,
                                   normal, tau1, np.cross(normal, tau1))
        self.face_geom = [FaceGeom(*g) for g in zip(self.face_stack.h.tolist(),
                                                    self.face_stack.area.tolist(),
                                                    centroid, normal, tau1, self.face_stack.tau2)]
        self._face_loop = (loop, start, sizes, owner)

        # cells: sub-tetrahedra {vertex mean, face centroid, a, b} over the
        # loop edges (a, b) of each face, taken in the cell's outward order
        inc_face = np.concatenate([fids for fids, _ in self.cells])
        inc_sign = np.concatenate([signs for _, signs in self.cells])
        inc_cell = np.repeat(np.arange(len(self.cells)), [len(fids) for fids, _ in self.cells])
        n_sub = sizes[inc_face]
        inc = np.repeat(np.arange(len(inc_face)), n_sub)
        i = np.arange(len(inc)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        n = n_sub[inc]
        rev = inc_sign[inc] < 0                # a reversed loop runs l[n-1], ..., l[0]
        cur = np.where(rev, n - 1 - i, i)
        nxt_pos = np.where(rev, (2 * n - 2 - i) % n, (i + 1) % n)
        base = start[inc_face[inc]]
        self.subtets = np.stack([inc_face[inc], loop[base + cur], loop[base + nxt_pos]], axis=1)
        sub_cell = inc_cell[inc]
        self.subtet_start = np.searchsorted(sub_cell, np.arange(len(self.cells) + 1))
        cv = np.concatenate(self.cell_vertices)
        cv_sizes = np.array([len(vs) for vs in self.cell_vertices])
        cv_start = np.cumsum(cv_sizes) - cv_sizes
        xref = (np.add.reduceat(V[cv], cv_start) / cv_sizes[:, None])[sub_cell]
        cf, a, b = centroid[self.subtets[:, 0]], V[self.subtets[:, 1]], V[self.subtets[:, 2]]
        v6 = np.einsum("ij,ij->i", np.cross(cf - xref, a - xref), b - xref) / 6.0
        vol = np.bincount(sub_cell, v6, minlength=len(self.cells))
        raise_first(vol <= 0, lambda c: f"inverted cell {c}: negative volume by "
                     "divergence-theorem formula")
        mom = np.stack([np.bincount(sub_cell, v6 * x, minlength=len(self.cells))
                        for x in ((xref + cf + a + b) / 4.0).T], axis=1)
        self.cell_stack = CellGeom(_diameters(V, cv, cv_start, cv_sizes), vol, mom / vol[:, None])
        self.cell_geom = [CellGeom(*g) for g in zip(self.cell_stack.h.tolist(), vol.tolist(),
                                                    self.cell_stack.barycenter)]
        self._incidence = (inc_cell, inc_face, inc_sign)

    def _validate_geometry(self):
        loop, start, sizes, owner = self._face_loop
        fs = self.face_stack
        dist = np.abs(np.einsum("ij,ij->i", self.vertices[loop] - fs.centroid[owner], fs.normal[owner]))
        dmax = np.maximum.reduceat(dist, start)
        raise_first(dmax > PLANARITY_RTOL * fs.h, lambda f: f"non-planar face {f}: max deviation "
                     f"{dmax[f]:.3e} exceeds {PLANARITY_RTOL:g}*h_f")
        inc_cell, inc_face, inc_sign = self._incidence
        flux = (inc_sign * fs.area[inc_face])[:, None] * fs.normal[inc_face]
        closure = np.stack([np.bincount(inc_cell, x, minlength=self.n_cells) for x in flux.T], axis=1)
        raise_first(np.linalg.norm(closure, axis=1) > 1e-8 * self.cell_stack.h ** 2,
                     lambda c: f"cell {c} is not closed: inconsistent face orientations")

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
        keys = [(len(vs), *self._face_loop[2][fids].tolist())
                for vs, (fids, _) in zip(self.cell_vertices, self.cells)]
        return [np.flatnonzero([key == other for other in keys]) for key in dict.fromkeys(keys)]

    def face_closure(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex ids and the edge ids of the loops of `faces`, with repeats."""
        on = np.isin(self._face_loop[3], faces)
        return self._face_loop[0][on], self._loop_edges[on]

    def face_loops(self, faces: np.ndarray) -> np.ndarray:
        """Vertex loops of faces with one vertex count, stacked to (nf, nv)."""
        loop, start, sizes, _ = self._face_loop
        return loop[start[faces][:, None] + np.arange(sizes[faces[0]])]

    def euler_number(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces - self.n_cells

    def scaled(self, factor: float) -> "PolyMesh":
        signed = [((f + 1) * s).tolist() for f, s in self.cells]
        return PolyMesh(self.vertices * factor, [f.copy() for f in self.faces], signed)

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
            if key not in data:
                raise MeshError(f"mesh file {path} lacks '{key}'")
        return PolyMesh(data["vertices"], data["faces"], data["cells"])
    if fmt == "tetra-list":
        base = path[:-5] if path.endswith(".node") else path
        try:
            nodes = np.loadtxt(base + ".node", dtype=float, ndmin=2)
            eles = np.loadtxt(base + ".ele", dtype=int, ndmin=2)
        except (OSError, ValueError) as exc:
            raise MeshError(f"cannot parse tetra-list files at {base}: {exc}") from exc
        if nodes.shape[1] != 3 or eles.shape[1] != 4:
            raise MeshError("tetra-list files must be (x y z) and 4 vertex ids per line")
        if eles.min() < 0 or eles.max() >= len(nodes):
            raise MeshError("tetra-list: vertex index out of range")
        return mesh_from_tets(nodes, eles)
    raise ValueError(f"unknown mesh format {fmt!r}")


def mesh_from_tets(nodes: np.ndarray, tets: np.ndarray) -> PolyMesh:
    """Build a PolyMesh from a tetrahedron list, deduplicating shared faces."""
    nodes = np.asarray(nodes, dtype=float)
    tets = np.asarray(tets, dtype=int)
    faces: list[list[int]] = []
    key_to_id: dict[tuple[int, ...], int] = {}
    cells = []
    for tet in tets:
        v = nodes[tet]
        vol6 = np.dot(np.cross(v[1] - v[0], v[2] - v[0]), v[3] - v[0])
        t = list(map(int, tet))
        if vol6 < 0:
            t[2], t[3] = t[3], t[2]
        # outward-oriented faces of the positively oriented tet
        louts = [(t[0], t[2], t[1]), (t[0], t[1], t[3]), (t[1], t[2], t[3]), (t[0], t[3], t[2])]
        signed = []
        for loop in louts:
            key = tuple(sorted(loop))
            if key in key_to_id:
                fid = key_to_id[key]
                signed.append(-(fid + 1))  # stored loop is outward for the first cell
            else:
                fid = len(faces)
                key_to_id[key] = fid
                faces.append(list(loop))
                signed.append(fid + 1)
        cells.append(signed)
    return PolyMesh(nodes, faces, cells)


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
    hgrid = 1.0 / n
    idx = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    pts = np.empty(((n + 1) ** 3, 3))
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                p = np.array([i, j, k], dtype=float) / n
                free = np.array([0 < i < n, 0 < j < n, 0 < k < n])
                dp = rng.uniform(-jitter, jitter, 3) * hgrid
                pts[idx(i, j, k)] = p + dp * free
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    steps = [base.copy()]
                    for ax in perm:
                        nxt = steps[-1].copy()
                        nxt[ax] += 1
                        steps.append(nxt)
                    tets.append([idx(*q) for q in steps])
    return mesh_from_tets(pts, np.array(tets))


def mesh_size(mesh: PolyMesh) -> float:
    """Mesh size h = arithmetic mean of the cell diameters."""
    return float(np.mean([g.h for g in mesh.cell_geom]))


@dataclass
class QualityReport:
    """Shape-regularity diagnostics.

    `edge_ratio` and `face_ratio` are min(h_e/h_P) and min(h_f/h_P) per cell;
    `ball_ratio` is the inscribed-ball-about-barycenter proxy radius over h_P
    (a proxy for star-shapedness, reported but not gated: deciding exact
    star-shapedness is a nonconvex feasibility problem).  The pass/fail gate
    compares min(edge_ratio, face_ratio) against the configured threshold.
    """

    rho: float
    edge_ratio: np.ndarray
    face_ratio: np.ndarray
    ball_ratio: np.ndarray
    rho_hat: float
    passed: bool
    failing_cells: list[int]


def quality_check(mesh: PolyMesh, rho: float) -> QualityReport:
    nc = mesh.n_cells
    edge_ratio = np.empty(nc)
    face_ratio = np.empty(nc)
    ball_ratio = np.empty(nc)
    for ci in range(nc):
        h = mesh.cell_geom[ci].h
        edge_ratio[ci] = min(mesh.edge_geom[e].length for e in mesh.cell_edges[ci]) / h
        face_ratio[ci] = min(mesh.face_geom[f].h for f in mesh.cells[ci][0]) / h
        xb = mesh.cell_geom[ci].barycenter
        r = np.inf
        for f, s in zip(*mesh.cells[ci]):
            g = mesh.face_geom[f]
            r = min(r, s * np.dot(g.centroid - xb, g.normal))
        ball_ratio[ci] = r / h
    per_cell = np.minimum(edge_ratio, face_ratio)
    failing = [int(i) for i in np.nonzero(per_cell < rho)[0]]
    return QualityReport(
        rho=rho,
        edge_ratio=edge_ratio,
        face_ratio=face_ratio,
        ball_ratio=ball_ratio,
        rho_hat=float(per_cell.min()),
        passed=not failing,
        failing_cells=failing,
    )
