"""Quadrature on polygonal faces and polyhedral cells.

Cells are subdivided into tetrahedra {barycenter, face centroid, edge
endpoints}; faces into the triangle fan about their centroid.  One simplex
rule serves both: a conical (collapsed Gauss-Jacobi) product, exact to any
requested degree.
A face call builds the rules of a whole group of faces with one vertex count
as stacked arrays; a cell call maps all sub-tetrahedra of its cell in one
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .meshing import MeshError, raise_first, read_only


@dataclass
class QuadRule:
    points: np.ndarray   # (n, dim) physical coordinates
    weights: np.ndarray  # (n,)


@dataclass(frozen=True)
class TranslatedRule:
    """`rule` moved by `shift` (dim,): its weights are the rule's own array,
    its points are formed on each read."""
    rule: QuadRule
    shift: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return self.rule.points + self.shift

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights


def _gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    # weight (1-x)^alpha on [0,1]; scipy uses (1-x)^a (1+x)^b on [-1,1]
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def reference_simplex_rule(dim: int, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit simplex x_i >= 0, x_1 + ... + x_dim <= 1, read-only,
    since every caller shares it: the Gauss-Jacobi rules of weight
    (1-x)^(dim-1), ..., (1-x) and Gauss-Legendre, collapsed by (1 - x_i)."""
    n = max(1, (exactness + 2) // 2)
    rules = [_jacobi_01(n, dim - 1 - i) for i in range(dim - 1)] + [_gauss_01(n)]
    x, w = (np.meshgrid(*r, indexing="ij") for r in zip(*rules))
    pts, weights = list(x), w[0]
    for j in range(1, dim):
        for xi in x[:j]:
            pts[j] = pts[j] * (1 - xi)
        weights = weights * w[j]
    rule = np.stack(pts, axis=-1).reshape(-1, dim), weights.ravel()
    read_only(*rule)
    return rule


def face_quadrature(mesh, faces, exactness: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle-fan rules about the centroids of a group of faces that share
    one vertex count (see `PolyMesh.face_groups`).

    Returns (points in each face's (tau1, tau2) frame (nf, nq, 2), the same
    points in space (nf, nq, 3), weights (nf, nq)).  A face's weights sum to
    its area; a degenerate fan triangle raises for the first face with one.
    """
    faces = np.asarray(faces, dtype=int)
    fs = mesh.face_stack
    ctr = fs.centroid[faces]
    frame = np.stack([fs.tau1[faces], fs.tau2[faces]], axis=2)           # (nf, 3, 2)
    verts2 = (mesh.vertices[mesh.face_loops(faces)] - ctr[:, None]) @ frame
    # fan triangle i is {centroid, v_i, v_i+1}: Jacobian columns v_i, v_i+1
    J = np.stack([verts2, np.roll(verts2, -1, axis=1)], axis=3)          # (nf, nv, 2, 2)
    ref_pts, ref_w = reference_simplex_rule(2, exactness)
    w = ref_w * np.linalg.det(J)[..., None]                               # (nf, nv, nref)
    raise_first(np.any(w.sum(axis=2) <= 0, axis=1),
                lambda f: f"degenerate fan triangle on face {f}", ids=faces)
    pts2 = (ref_pts @ J.transpose(0, 1, 3, 2)).reshape(len(faces), -1, 2)
    pts3 = ctr[:, None] + pts2[..., :1] * fs.tau1[faces, None] + pts2[..., 1:] * fs.tau2[faces, None]
    return pts2, pts3, w.reshape(len(faces), -1)


def cell_quadrature(mesh, c: int, exactness: int) -> QuadRule:
    """Tetrahedral-subdivision rule on cell c, mapped in one broadcast.

    Subdivision tetrahedra are {x_B, face centroid, edge endpoints} with the
    cell's outward face orientation; a non-positive tetrahedron volume means
    the cell is not star-shaped about its barycenter.
    """
    sub = mesh.subtets[mesh.subtet_start[c]: mesh.subtet_start[c + 1]]
    xb = mesh.cell_stack.barycenter[c]
    J = np.stack([mesh.face_stack.centroid[sub[:, 0]] - xb,
                  mesh.vertices[sub[:, 1]] - xb, mesh.vertices[sub[:, 2]] - xb], axis=2)
    ref_pts, ref_w = reference_simplex_rule(3, exactness)
    w = ref_w * np.linalg.det(J)[:, None]
    if np.any(w.sum(axis=1) <= 1e-300):
        raise MeshError(f"cell {c} not star-shaped about barycenter")
    pts = xb + ref_pts @ J.transpose(0, 2, 1)
    return QuadRule(pts.reshape(-1, 3), w.ravel())
