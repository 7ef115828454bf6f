"""Local and global assembly of the discrete forms.

The discrete problem follows the saddle layout

    nu a_h(u, v) + c_h(u; u, v) + b(v, p) = (f_h, v)
                                  b(u, q) = 0

with b(v, q) the exact pairing of the reconstructed divergence against the
pressure monomials and a_h the projected-strain consistency term plus the
D-recipe stabilization acting through (I - Pi^D).  The zero-mean pressure
constraint is one dense row of pressure-basis integrals, added only when
every boundary face is Dirichlet.

The convective form c_h(w; u, v) pairs only projected polynomials, so C(w)
and its Newton companion Cg(w) are built without quadrature points: exact
contractions of Pi^0_k, the projected gradient and the cell's monomial
integrals, batched over all cells that share a local DoF layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .dofspace import DofMapQ, DofMapV, interpolate_boundary
from .meshing import PolyMesh
from .polynomials import _index_lookup, dim_poly, multi_indices
from .projection import CellProjections, FaceProjections, face_extraction


@dataclass
class ProblemSpec:
    """Data of one flow problem: viscosity, load, boundary conditions."""

    nu: float
    load: Callable                       # (n,3) points -> (n,3)
    dirichlet: Callable                  # (n,3) points -> (n,3) boundary velocity
    k: int
    convective: bool = False
    neumann_faces: Callable | None = None   # (centroid, normal) -> bool
    traction: Callable | None = None        # (pts (n,3), normal) -> (n,3)
    stabilization: str = "drecipe"          # or "unit": 3D dofi-dofi, sigma_i = h_P


def stabilization_weights(proj: CellProjections, stabilization: str = "drecipe") -> np.ndarray:
    """Per-DoF weights sigma_i of the stabilization sum over (I - Pi^D).

    "drecipe" is max(h_P, consistency_ii); "unit" is the 3D dofi-dofi recipe
    sigma_i = h_P, which matches the h_P scaling of the strain form on the
    O(1) DoFs."""
    if stabilization == "drecipe":
        return proj.sigma
    if stabilization == "unit":
        return np.full(proj.ndof, proj.h)
    raise ValueError(f"unknown stabilization {stabilization!r}")


def local_a(proj: CellProjections, nu: float, stabilization: str = "drecipe") -> np.ndarray:
    """nu * (projected-strain consistency + stabilization on (I - Pi^D)),
    weighted per DoF by the "drecipe" or the "unit" (3D dofi-dofi,
    sigma_i = h_P) recipe of `stabilization_weights`."""
    Qd = np.eye(proj.ndof) - proj.pi_d_dof
    sig = stabilization_weights(proj, stabilization)
    return nu * (proj.consistency + Qd.T @ (sig[:, None] * Qd))


def local_b(proj: CellProjections) -> np.ndarray:
    """Exact pairing of div v against the pressure monomials: (pi_{k-1,3}, ndof)."""
    return proj.Hq @ proj.div


@lru_cache(maxsize=None)
def _triple_index(k: int) -> np.ndarray:
    """Positions in the cell monomial integrals of m_a m_b m_c for |a| <= k,
    |b| <= k-1, |c| <= k: the (pi_k, pi_{k-1}, pi_k) triple-product table."""
    lookup = _index_lookup(3 * k - 1, 3)
    a_k = multi_indices(k, 3)
    a_q = multi_indices(k - 1, 3)
    table = np.empty((len(a_k), len(a_q), len(a_k)), dtype=int)
    for i, a in enumerate(a_k):
        for j, b in enumerate(a_q):
            for l, c in enumerate(a_k):
                table[i, j, l] = lookup[tuple(x + y + z for x, y, z in zip(a, b, c))]
    table.flags.writeable = False
    return table


def _convection_batch(projs: list[CellProjections], w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(w) and Cg(w) of cells sharing one local layout, w of shape (nc, ndof).

    With Pi^0_k v_i = sum_m P[a,m,i] m_m e_a, the projected gradient
    (grad u_j)_ab = sum_n G[a,b,n,j] m_n and M3[m,n,l] = int m_m m_n m_l,
    the trilinear form is an exact contraction, since the rule behind the
    monomial integrals is exact to the integrand degree 3k-1:
        C[i,j]  = sum P[a,m,i] G[a,b,n,j] (P w)[b,l] M3[m,n,l]
        Cg[i,j] = sum P[a,m,i] (G w)[a,b,n] P[b,l,j] M3[m,n,l]"""
    k = projs[0].k
    nd = projs[0].ndof
    pk = dim_poly(k, 3)
    pq = dim_poly(k - 1, 3)
    nc = len(projs)
    P = np.stack([pr.pi_0k for pr in projs]).reshape(nc, 3, pk, nd)
    G = np.stack([pr.pi_0grad for pr in projs]).reshape(nc, 3, 3 * pq, nd)
    M3 = np.stack([pr.mono_int for pr in projs])[:, _triple_index(k)]
    Pw = np.einsum("cbln,cn->cbl", P, w)
    Gw = np.einsum("cakn,cn->cak", G, w)
    # C: sum over (b, n) of G[a,b,n,j] against sum_l M3[m,n,l] Pw[b,l]
    MW = np.einsum("cmnl,cbl->cmbn", M3, Pw).reshape(nc, 1, pk, 3 * pq)
    Y = MW @ G                                                   # (nc, 3, pk, nd)
    # Cg: sum over (b, l) of Z[a,m,b,l] P[b,l,j], Z = sum_n Gw[a,b,n] M3[m,n,l]
    Z = np.einsum("cabn,cmnl->cambl", Gw.reshape(nc, 3, 3, pq), M3)
    Yg = Z.reshape(nc, 3 * pk, 3 * pk) @ P.reshape(nc, 3 * pk, nd)
    Pt = P.reshape(nc, 3 * pk, nd).transpose(0, 2, 1)
    return Pt @ Y.reshape(nc, 3 * pk, nd), Pt @ Yg


def local_convection(proj: CellProjections, w_loc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convective matrix C(w)[i,j] = c_h(w; phi_j, phi_i) and the transposed
    slot Cg(w)[i,j] = c_h(phi_j; w, phi_i) used by the Newton linearization."""
    C, Cg = _convection_batch([proj], np.asarray(w_loc, dtype=float)[None, :])
    return C[0], Cg[0]


def local_load(proj: CellProjections, load: Callable) -> np.ndarray:
    """(f_h, v)_P = moments(v) . coefficients of Pi^0_k f."""
    pk = proj.Hk.shape[0]
    phi = proj.basis.eval(proj.rule.points)[:, :pk]
    fvals = np.asarray(load(proj.rule.points), dtype=float).reshape(-1, 3)
    rhs = np.zeros(proj.ndof)
    for c in range(3):
        cf = np.linalg.solve(proj.Hk, phi.T @ (proj.rule.weights * fvals[:, c]))
        rhs += proj.moments[c * pk: (c + 1) * pk, :].T @ cf
    return rhs


@dataclass
class GlobalSystem:
    """Assembled saddle-point operator and right-hand side."""

    k: int
    nu: float
    A: sp.csr_matrix                 # velocity block (viscous + stabilization)
    B: sp.csr_matrix                 # div pairing, (ndof_q, ndof_v)
    F: np.ndarray                    # velocity right-hand side
    e: np.ndarray | None             # pressure-integral vector (None: no mean row)
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray
    neumann_face_ids: list = field(default_factory=list)

    @property
    def ndof_v(self) -> int:
        return self.A.shape[0]

    @property
    def ndof_q(self) -> int:
        return self.B.shape[0]


def classify_neumann(mesh: PolyMesh, spec: ProblemSpec) -> list[int]:
    if spec.neumann_faces is None:
        return []
    out = []
    for f in np.nonzero(mesh.boundary_face)[0]:
        g = mesh.face_geom[f]
        ci = mesh.face_cells[f, 0]
        sign = mesh.face_cell_signs[f, 0]
        if spec.neumann_faces(g.centroid, sign * g.normal):
            out.append(int(f))
    return out


def _check_compatibility(mesh: PolyMesh, mapv: DofMapV, gvals: np.ndarray,
                         faceprojs: dict[int, FaceProjections]) -> None:
    """Full-Dirichlet data must satisfy the flux compatibility
    |integral of g.n over the boundary| <= 1e-10 * |boundary|."""
    flux = 0.0
    area = 0.0
    for f in np.nonzero(mesh.boundary_face)[0]:
        g = mesh.face_geom[f]
        sign = mesh.face_cell_signs[f, 0]
        base = mapv.offsets["face"] + 3 * mapv.n_face_moms * f
        flux += sign * g.area * gvals[base]      # constant normal moment
        area += g.area
    if abs(flux) > 1e-10 * max(1.0, area):
        raise ValueError(
            f"incompatible Dirichlet data: boundary flux {flux:.3e} is not zero"
        )


def assemble(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
             projs: list[CellProjections],
             faceprojs: dict[int, FaceProjections]) -> GlobalSystem:
    """Scatter-add the local contributions into the sparse saddle system."""
    mapv, mapq = maps
    rows_a, cols_a, vals_a = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    F = np.zeros(mapv.ndof)
    e = np.zeros(mapq.ndof)
    pq = mapq.n_per_cell

    for ci, proj in enumerate(projs):
        gdof = mapv.cell_global[ci]
        A_loc = local_a(proj, spec.nu, spec.stabilization)
        B_loc = local_b(proj)
        rc = np.meshgrid(gdof, gdof, indexing="ij")
        rows_a.append(rc[0].ravel())
        cols_a.append(rc[1].ravel())
        vals_a.append(A_loc.ravel())
        qdof = np.arange(ci * pq, (ci + 1) * pq)
        rc = np.meshgrid(qdof, gdof, indexing="ij")
        rows_b.append(rc[0].ravel())
        cols_b.append(rc[1].ravel())
        vals_b.append(B_loc.ravel())
        F[gdof] += local_load(proj, spec.load)
        e[qdof] = proj.mono_int[:pq]

    neumann = classify_neumann(mesh, spec)
    for f in neumann:
        ci = int(mesh.face_cells[f, 0])
        sign = int(mesh.face_cell_signs[f, 0])
        fi_loc = int(np.nonzero(mesh.cells[ci][0] == f)[0][0])
        fp = faceprojs[f]
        g = mesh.face_geom[f]
        tvals = np.asarray(spec.traction(fp.pts3, sign * g.normal), dtype=float).reshape(-1, 3)
        gdof = mapv.cell_global[ci]
        for c in range(3):
            FT = fp.vals @ (fp.l2 @ face_extraction(mesh, mapv, ci, fi_loc, c))
            F[gdof] += FT.T @ (fp.w * tvals[:, c])

    A = sp.csr_matrix(
        (np.concatenate(vals_a), (np.concatenate(rows_a), np.concatenate(cols_a))),
        shape=(mapv.ndof, mapv.ndof),
    )
    B = sp.csr_matrix(
        (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
        shape=(mapq.ndof, mapv.ndof),
    )

    dir_mask = mapv.dirichlet.copy()
    if neumann:
        n_fm = mapv.n_face_moms
        n_ep = mapv.n_edge_pts
        neumann_set = set(neumann)
        for f in neumann:
            base = mapv.offsets["face"] + 3 * n_fm * f
            dir_mask[base: base + 3 * n_fm] = False
        # vertices/edges stay Dirichlet unless all their boundary faces are Neumann
        vertex_faces: dict[int, list[int]] = {}
        edge_faces: dict[int, list[int]] = {}
        for f in np.nonzero(mesh.boundary_face)[0]:
            for v in mesh.faces[f]:
                vertex_faces.setdefault(int(v), []).append(int(f))
            for eid in mesh.face_edges[f][0]:
                edge_faces.setdefault(int(eid), []).append(int(f))
        for v, fs in vertex_faces.items():
            if all(f in neumann_set for f in fs):
                dir_mask[3 * v: 3 * v + 3] = False
        for eid, fs in edge_faces.items():
            if all(f in neumann_set for f in fs):
                base = mapv.offsets["edge"] + 3 * n_ep * eid
                dir_mask[base: base + 3 * n_ep] = False

    gvals = interpolate_boundary(mesh, mapv, spec.dirichlet)
    gvals[~dir_mask] = 0.0
    if not neumann:
        _check_compatibility(mesh, mapv, interpolate_boundary(mesh, mapv, spec.dirichlet), faceprojs)

    return GlobalSystem(
        k=spec.k, nu=spec.nu, A=A, B=B, F=F,
        e=None if neumann else e,
        dirichlet_mask=dir_mask, dirichlet_values=gvals,
        neumann_face_ids=neumann,
    )


def assemble_convection(mesh: PolyMesh, mapv: DofMapV, projs: list[CellProjections],
                        u: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Global C(u) and the gradient-slot matrix Cg(u) at the state u, one
    batched contraction per group of cells with the same local DoF count."""
    groups: dict[int, list[int]] = {}
    for ci, proj in enumerate(projs):
        groups.setdefault(proj.ndof, []).append(ci)
    rows, cols, vc, vg = [], [], [], []
    for nd, cells in groups.items():
        gdof = np.array([mapv.cell_global[ci] for ci in cells])
        C, Cg = _convection_batch([projs[ci] for ci in cells], u[gdof])
        rows.append(np.repeat(gdof, nd, axis=1).ravel())
        cols.append(np.tile(gdof, (1, nd)).ravel())
        vc.append(C.ravel())
        vg.append(Cg.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    shape = (mapv.ndof, mapv.ndof)
    return (sp.csr_matrix((np.concatenate(vc), (rows, cols)), shape=shape),
            sp.csr_matrix((np.concatenate(vg), (rows, cols)), shape=shape))


def dump_matrix(system: GlobalSystem, path: str) -> None:
    """Write the assembled blocks in (row, col, value) coordinate text form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# block A (velocity), B (divergence pairing)\n")
        for name, M in (("A", system.A), ("B", system.B)):
            coo = M.tocoo()
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{name} {r} {c} {v:.17e}\n")
