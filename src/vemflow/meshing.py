"""Polyhedral mesh representation, ingestion, structured generation and
quality diagnostics.

A mesh stores vertices, oriented face loops and cells as signed face lists
(sign +1 when the stored loop is counterclockwise seen from outside the
cell).  Edges are derived from the face loops with the canonical key
(min vertex, max vertex); they are never stored in input files.  Meshes are
immutable after construction and safe to share read-only across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


PLANARITY_RTOL = 1e-9


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
        self.edge_geom = []
        for a, b in self.edges:
            vec = self.vertices[b] - self.vertices[a]
            length = float(np.linalg.norm(vec))
            if length <= 0:
                raise MeshError("degenerate edge of zero length")
            self.edge_geom.append(EdgeGeom(length, vec / length))

        self.face_geom = []
        for fi, f in enumerate(self.faces):
            pts = self.vertices[f]
            ctr0 = pts.mean(axis=0)
            rel = pts - ctr0
            nv = len(f)
            crosses = [np.cross(rel[i], rel[(i + 1) % nv]) for i in range(nv)]
            nrm = np.sum(crosses, axis=0)
            a2 = np.linalg.norm(nrm)
            if a2 <= 0:
                raise MeshError(f"face {fi} has zero area")
            normal = nrm / a2
            # signed fan areas about the vertex mean; exact for planar
            # star-shaped faces (non-planarity is rejected below)
            area = 0.0
            centroid = np.zeros(3)
            for i in range(nv):
                a = 0.5 * (crosses[i] @ normal)
                area += a
                centroid += a * (ctr0 + (rel[i] + rel[(i + 1) % nv]) / 3.0)
            centroid /= area
            h = 0.0
            for i in range(nv):
                h = max(h, float(np.max(np.linalg.norm(pts - pts[i], axis=1))))
            tau1 = pts[1] - pts[0]
            tau1 = tau1 - (tau1 @ normal) * normal
            tau1 /= np.linalg.norm(tau1)
            tau2 = np.cross(normal, tau1)
            self.face_geom.append(FaceGeom(h, float(a2 / 2.0), centroid, normal, tau1, tau2))

        self.cell_geom = []
        for ci, (fids, signs) in enumerate(self.cells):
            vol = 0.0
            mom = np.zeros(3)
            xref = self.vertices[self.cell_vertices[ci]].mean(axis=0)
            for f, s in zip(fids, signs):
                loop = self.faces[f] if s > 0 else self.faces[f][::-1]
                cf = self.face_geom[f].centroid
                nv = len(loop)
                for i in range(nv):
                    a = self.vertices[loop[i]]
                    b = self.vertices[loop[(i + 1) % nv]]
                    v6 = np.dot(np.cross(cf - xref, a - xref), b - xref)
                    vol += v6 / 6.0
                    mom += (v6 / 6.0) * (xref + cf + a + b) / 4.0
            if vol <= 0:
                raise MeshError(f"inverted cell {ci}: negative volume by divergence-theorem formula")
            pts = self.vertices[self.cell_vertices[ci]]
            h = 0.0
            for i in range(len(pts)):
                h = max(h, float(np.max(np.linalg.norm(pts - pts[i], axis=1))))
            self.cell_geom.append(CellGeom(h, float(vol), mom / vol))

    def _validate_geometry(self):
        for fi, f in enumerate(self.faces):
            g = self.face_geom[fi]
            dist = np.abs((self.vertices[f] - g.centroid) @ g.normal)
            if np.max(dist) > PLANARITY_RTOL * g.h:
                raise MeshError(
                    f"non-planar face {fi}: max deviation {np.max(dist):.3e} "
                    f"exceeds {PLANARITY_RTOL:g}*h_f"
                )
        for ci, (fids, signs) in enumerate(self.cells):
            closure = np.zeros(3)
            for f, s in zip(fids, signs):
                closure += s * self.face_geom[f].area * self.face_geom[f].normal
            if np.linalg.norm(closure) > 1e-8 * self.cell_geom[ci].h ** 2:
                raise MeshError(f"cell {ci} is not closed: inconsistent face orientations")

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
    """n^3 congruent cubes tiling [0,1]^3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    pts = np.array([
        (i / n, j / n, k / n)
        for i in range(n + 1) for j in range(n + 1) for k in range(n + 1)
    ])
    faces = []
    fid = {}

    def add_face(loop):
        fid[loop] = len(faces)
        faces.append(list(loop))

    # x-constant faces, loop CCW seen from +x
    for i in range(n + 1):
        for j in range(n):
            for k in range(n):
                add_face((idx(i, j, k), idx(i, j + 1, k), idx(i, j + 1, k + 1), idx(i, j, k + 1)))
    # y-constant, CCW seen from +y
    for j in range(n + 1):
        for i in range(n):
            for k in range(n):
                add_face((idx(i, j, k), idx(i, j, k + 1), idx(i + 1, j, k + 1), idx(i + 1, j, k)))
    # z-constant, CCW seen from +z
    for k in range(n + 1):
        for i in range(n):
            for j in range(n):
                add_face((idx(i, j, k), idx(i + 1, j, k), idx(i + 1, j + 1, k), idx(i, j + 1, k)))

    def xf(i, j, k):
        return fid[(idx(i, j, k), idx(i, j + 1, k), idx(i, j + 1, k + 1), idx(i, j, k + 1))]

    def yf(j, i, k):
        return fid[(idx(i, j, k), idx(i, j, k + 1), idx(i + 1, j, k + 1), idx(i + 1, j, k))]

    def zf(k, i, j):
        return fid[(idx(i, j, k), idx(i + 1, j, k), idx(i + 1, j + 1, k), idx(i, j + 1, k))]

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cells.append([
                    +(xf(i + 1, j, k) + 1), -(xf(i, j, k) + 1),
                    +(yf(j + 1, i, k) + 1), -(yf(j, i, k) + 1),
                    +(zf(k + 1, i, j) + 1), -(zf(k, i, j) + 1),
                ])
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


def single_distorted_hex(top_scale: float = 0.6, shear: float = 0.25) -> PolyMesh:
    """One non-affine hexahedral cell (sheared frustum) with planar faces."""
    s = top_scale
    bot = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float)
    ctr = np.array([0.5, 0.5, 0.0])
    top = ctr + s * (bot - ctr) + np.array([shear, 0.4 * shear, 1.0])
    verts = np.vstack([bot, top])
    faces = [
        [0, 3, 2, 1],              # bottom, outward -z
        [4, 5, 6, 7],              # top, outward +z
        [0, 1, 5, 4],              # y=0 side
        [1, 2, 6, 5],              # x=1 side
        [2, 3, 7, 6],              # y=1 side
        [3, 0, 4, 7],              # x=0 side
    ]
    cells = [[1, 2, 3, 4, 5, 6]]
    return PolyMesh(verts, faces, cells)


def truncated_octahedron_cell() -> PolyMesh:
    """The Voronoi cell of the BCC lattice (truncated octahedron), scaled
    into [0,1]^3.  Used as an imported polyhedral (Voronoi) test cell."""
    verts = []
    for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                v = [0.0, 0.0, 0.0]
                v[perm[0]] = 0.0
                v[perm[1]] = s1 * 1.0
                v[perm[2]] = s2 * 2.0
                verts.append(tuple(v))
    verts = np.array(sorted(set(verts)))
    center = np.zeros(3)
    faces = []
    planes = []
    for axis in range(3):
        for s in (-1, 1):
            nrm = np.zeros(3)
            nrm[axis] = s
            planes.append((nrm, 2.0))
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                planes.append((np.array([sx, sy, sz]) / np.sqrt(3.0), 3.0 / np.sqrt(3.0)))
    for nrm, off in planes:
        on = [i for i, v in enumerate(verts) if abs(v @ nrm - off) < 1e-9]
        pts = verts[on]
        ctr = pts.mean(axis=0)
        t1 = pts[0] - ctr
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(nrm, t1)
        ang = np.arctan2((pts - ctr) @ t2, (pts - ctr) @ t1)
        order = np.argsort(ang)
        faces.append([on[i] for i in order])  # CCW w.r.t. nrm = outward
    cells = [[f + 1 for f in range(len(faces))]]
    return PolyMesh(verts / 4.0 + 0.5, faces, cells)


def extract_cells(mesh: PolyMesh, cell_ids) -> PolyMesh:
    """Submesh of selected cells with vertices and faces renumbered."""
    cell_ids = list(cell_ids)
    fmap: dict[int, int] = {}
    vmap: dict[int, int] = {}
    faces = []
    verts = []
    cells = []
    for ci in cell_ids:
        fids, signs = mesh.cells[ci]
        signed = []
        for f, s in zip(fids, signs):
            if f not in fmap:
                loop = []
                for v in mesh.faces[f]:
                    if v not in vmap:
                        vmap[v] = len(verts)
                        verts.append(mesh.vertices[v])
                    loop.append(vmap[v])
                fmap[f] = len(faces)
                faces.append(loop)
            signed.append(int(s) * (fmap[f] + 1))
        cells.append(signed)
    return PolyMesh(np.array(verts), faces, cells)


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
