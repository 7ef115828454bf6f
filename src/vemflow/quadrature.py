"""Quadrature on edges, polygonal faces and polyhedral cells.

Cells are subdivided into tetrahedra {barycenter, face centroid, edge
endpoints}; faces into the triangle fan about their centroid.  Simplex rules
are conical (collapsed Gauss-Jacobi) products, exact to any requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .meshing import MeshError


@dataclass
class QuadRule:
    points: np.ndarray   # (n, dim) physical coordinates
    weights: np.ndarray  # (n,)
    exactness: int


def _gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    # weight (1-x)^alpha on [0,1]; scipy uses (1-x)^a (1+x)^b on [-1,1]
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def reference_tet_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit tetrahedron x,y,z >= 0, x+y+z <= 1 (volume 1/6)."""
    n = max(1, (exactness + 2) // 2)
    x1, w1 = _jacobi_01(n, 2)
    x2, w2 = _jacobi_01(n, 1)
    x3, w3 = _gauss_01(n)
    pts = []
    wts = []
    for a, wa in zip(x1, w1):
        for b, wb in zip(x2, w2):
            for c, wc in zip(x3, w3):
                u = a
                v = b * (1 - a)
                w = c * (1 - a) * (1 - b)
                pts.append((u, v, w))
                wts.append(wa * wb * wc)
    return np.array(pts), np.array(wts)


@lru_cache(maxsize=None)
def reference_triangle_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit triangle x,y >= 0, x+y <= 1 (area 1/2)."""
    n = max(1, (exactness + 2) // 2)
    x1, w1 = _jacobi_01(n, 1)
    x2, w2 = _gauss_01(n)
    pts = []
    wts = []
    for a, wa in zip(x1, w1):
        for b, wb in zip(x2, w2):
            pts.append((a, b * (1 - a)))
            wts.append(wa * wb)
    return np.array(pts), np.array(wts)


def tet_rule(verts: np.ndarray, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Map the reference rule to the tetrahedron with rows `verts` (4, 3)."""
    ref_pts, ref_w = reference_tet_rule(exactness)
    v0 = verts[0]
    J = np.stack([verts[1] - v0, verts[2] - v0, verts[3] - v0], axis=1)
    vol6 = np.linalg.det(J)
    pts = v0 + ref_pts @ J.T
    return pts, ref_w * vol6


def triangle_rule_2d(verts: np.ndarray, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on a 2D triangle (3, 2)."""
    ref_pts, ref_w = reference_triangle_rule(exactness)
    v0 = verts[0]
    J = np.stack([verts[1] - v0, verts[2] - v0], axis=1)
    area2 = np.linalg.det(J)
    pts = v0 + ref_pts @ J.T
    return pts, ref_w * area2


def edge_quadrature(p0: np.ndarray, p1: np.ndarray, exactness: int) -> QuadRule:
    """Gauss rule along the segment p0 -> p1 (points in physical space)."""
    n = max(1, (exactness + 2) // 2)
    t, w = _gauss_01(n)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = np.linalg.norm(p1 - p0)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return QuadRule(pts, w * length, exactness)


def face_quadrature(mesh, f: int, exactness: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle-fan rule on face f about its centroid.

    Returns (points2d in the face frame, points3d, weights).  Weights sum to
    the face area; degenerate fan triangles raise.
    """
    g = mesh.face_geom[f]
    loop = mesh.faces[f]
    verts2 = (mesh.vertices[loop] - g.centroid) @ np.stack([g.tau1, g.tau2], axis=1)
    c2 = np.zeros(2)
    pts2 = []
    wts = []
    nv = len(loop)
    for i in range(nv):
        tri = np.array([c2, verts2[i], verts2[(i + 1) % nv]])
        p, w = triangle_rule_2d(tri, exactness)
        if np.sum(w) <= 0:
            raise MeshError(f"degenerate fan triangle on face {f}")
        pts2.append(p)
        wts.append(w)
    pts2 = np.vstack(pts2)
    wts = np.concatenate(wts)
    pts3 = g.centroid + pts2[:, :1] * g.tau1 + pts2[:, 1:] * g.tau2
    return pts2, pts3, wts


def cell_quadrature(mesh, c: int, exactness: int) -> QuadRule:
    """Tetrahedral-subdivision rule on cell c.

    Subdivision tetrahedra are {x_B, face centroid, edge endpoints} with the
    cell's outward face orientation; a non-positive tetrahedron volume means
    the cell is not star-shaped about its barycenter.
    """
    xb = mesh.cell_geom[c].barycenter
    pts = []
    wts = []
    for f, sign in zip(mesh.cells[c][0], mesh.cells[c][1]):
        loop = mesh.faces[f]
        if sign < 0:
            loop = loop[::-1]
        cf = mesh.face_geom[f].centroid
        nv = len(loop)
        for i in range(nv):
            a = mesh.vertices[loop[i]]
            b = mesh.vertices[loop[(i + 1) % nv]]
            verts = np.array([xb, cf, a, b])
            p, w = tet_rule(verts, exactness)
            if np.sum(w) <= 1e-300:
                raise MeshError(f"cell {c} not star-shaped about barycenter")
            pts.append(p)
            wts.append(w)
    return QuadRule(np.vstack(pts), np.concatenate(wts), exactness)
