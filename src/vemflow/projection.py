"""Computable polynomial projections from DoF vectors.

Per face (scalar, applied componentwise): the H1-seminorm projection onto
P_k(f) via the in-plane Green identity, the DoF-euclidean projection onto
P_k(f), and the L2 projection onto P_{k+1}(f) whose high-order moments come
from the enhancement constraints.  Per cell: the divergence reconstruction
in P_{k-1}(P), the interior moments against [P_k(P)]^3 assembled through the
gradient/cross decomposition, and from those the L2, H1-seminorm and
DoF-euclidean projections plus the consistency stiffness.

Enhancement constraints use the DoF-euclidean projection in place of the
H1-seminorm one on both faces and cells (the space definitions admit any
computable polynomial projection there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import qr, solve, solve_triangular

from . import quadrature as quad
from .dofspace import DofMapV, cell_basis, edge_point_params, face_basis, face_coords
from .meshing import PolyMesh
from .polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    decomp_basis,
    dim_poly,
    multi_indices,
)


def cell_rule_exactness(k: int) -> int:
    # 2k+2 covers every mass/consistency pairing; the projected trilinear
    # convective integrand has degree 3k-1
    return max(2 * k + 2, 3 * k - 1)


@lru_cache(maxsize=None)
def _index3(degree: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(degree, 3))}


@lru_cache(maxsize=None)
def _index2(degree: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(degree, 2))}


def _mass_from_integrals(ints: np.ndarray, lookup: dict, rows, cols) -> np.ndarray:
    H = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            H[i, j] = ints[lookup[tuple(x + y for x, y in zip(a, b))]]
    return H


def _lagrange_values(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on `nodes` at `pts` -> (npts, nnodes)."""
    n = len(nodes)
    out = np.ones((len(pts), n))
    for j in range(n):
        for m in range(n):
            if m != j:
                out[:, j] *= (pts - nodes[m]) / (nodes[j] - nodes[m])
    return out


# ---------------------------------------------------------------------------
# Face projections (scalar members of the enhanced face space)
# ---------------------------------------------------------------------------


@dataclass
class FaceProjections:
    """Projection matrices acting on the scalar face DoF vector
    [vertex values (loop order) | per loop edge k-1 canonical values |
    moments against face monomials of degree <= k-2, divided by area]."""

    f: int
    k: int
    ndof: int
    basis: MonomialBasis2            # degree k+1, face frame
    nabla: np.ndarray                # (pi_{k,2}, ndof)
    dproj: np.ndarray                # (pi_{k,2}, ndof)
    l2: np.ndarray                   # (pi_{k+1,2}, ndof)
    pts2: np.ndarray
    pts3: np.ndarray
    w: np.ndarray


def build_face_projections(mesh: PolyMesh, f: int, k: int, edge_points3) -> FaceProjections:
    g = mesh.face_geom[f]
    loop = mesh.faces[f]
    nv = len(loop)
    n_mom = dim_poly(k - 2, 2)
    ndof = nv * k + n_mom
    basis = face_basis(mesh, f, k + 1)
    npk = dim_poly(k, 2)
    npk1 = dim_poly(k + 1, 2)

    pts2, pts3, w = quad.face_quadrature(mesh, f, 2 * k + 2)
    lk2 = _index2(2 * (k + 1))
    ints = MonomialBasis2(2 * (k + 1), np.zeros(2), g.h).eval(pts2).T @ w
    a_k = multi_indices(k, 2)
    a_k1 = multi_indices(k + 1, 2)
    Hk = _mass_from_integrals(ints, lk2, a_k, a_k)
    Hk1 = _mass_from_integrals(ints, lk2, a_k1, a_k1)

    verts2 = face_coords(mesh, f, mesh.vertices[loop])
    pos_in_loop = {int(loop[i]): i for i in range(nv)}

    # --- DoF-values matrix of the deg-k monomials -----------------------------
    D = np.zeros((ndof, npk))
    D[:nv, :] = basis.eval(verts2)[:, :npk]
    eids, _ = mesh.face_edges[f]
    for le in range(nv):
        ep2 = face_coords(mesh, f, edge_points3[eids[le]])
        D[nv + le * (k - 1): nv + (le + 1) * (k - 1), :] = basis.eval(ep2)[:, :npk]
    D[nv * k:, :] = Hk[:n_mom, :] / g.area

    # --- H1-seminorm projection via the in-plane Green identity ---------------
    Dx, Dy = basis.deriv_matrices()
    Dxk, Dyk = Dx[:npk, :npk], Dy[:npk, :npk]
    G = (Dxk.T @ Hk @ Dxk + Dyk.T @ Hk @ Dyk) / g.h**2
    B = np.zeros((npk, ndof))
    lap = (Dxk @ Dxk + Dyk @ Dyk) / g.h**2      # column a: coefficients of laplace(m_a)
    B[:, nv * k:] -= g.area * lap[:n_mom, :].T

    tnodes = np.concatenate([[0.0], np.array(edge_point_params(k)), [1.0]])
    perimeter = sum(mesh.edge_geom[e].length for e in eids)
    P0_m = np.zeros(npk)     # boundary integrals of the monomials
    P0_dof = np.zeros(ndof)  # boundary integral functional on the DoFs
    for le in range(nv):
        a_id, b_id = int(loop[le]), int(loop[(le + 1) % nv])
        vmin, vmax = min(a_id, b_id), max(a_id, b_id)
        cols = [pos_in_loop[vmin]] \
            + list(range(nv + le * (k - 1), nv + (le + 1) * (k - 1))) \
            + [pos_in_loop[vmax]]
        va2, vb2 = verts2[pos_in_loop[vmin]], verts2[pos_in_loop[vmax]]
        erule = quad.edge_quadrature(va2, vb2, 2 * k + 2)
        s = np.linalg.norm(erule.points - va2, axis=1) / np.linalg.norm(vb2 - va2)
        L = _lagrange_values(tnodes, s)
        phi_e = basis.eval(erule.points)[:, :npk]
        # outward in-plane normal from the loop direction (loop is CCW)
        t2 = verts2[(le + 1) % nv] - verts2[le]
        t2 /= np.linalg.norm(t2)
        n2 = np.array([t2[1], -t2[0]])
        gphi = basis.eval_grad(erule.points)[:, :npk, :]
        dn = gphi[:, :, 0] * n2[0] + gphi[:, :, 1] * n2[1]
        B[:, cols] += (dn * erule.weights[:, None]).T @ L
        P0_m += phi_e.T @ erule.weights
        P0_dof[cols] += L.T @ erule.weights
    G[0, :] = P0_m / perimeter
    B[0, :] = 0.0
    B[0, :] = P0_dof / perimeter
    nabla = solve(G, B)

    # --- DoF-euclidean projection ---------------------------------------------
    Q, R = qr(D, mode="economic")
    if np.min(np.abs(np.diag(R))) < 1e-12 * np.max(np.abs(np.diag(R))):
        raise np.linalg.LinAlgError(f"rank-deficient DoF system on face {f}")
    dproj = solve_triangular(R, Q.T)

    # --- enhanced L2 projection onto P_{k+1}(f) --------------------------------
    MOM = np.zeros((npk1, ndof))
    MOM[:n_mom, nv * k:] = g.area * np.eye(n_mom)
    Hhi = _mass_from_integrals(ints, lk2, a_k1[n_mom:], a_k)
    MOM[n_mom:, :] = Hhi @ dproj
    l2 = solve(Hk1, MOM)

    return FaceProjections(f=f, k=k, ndof=ndof, basis=basis, nabla=nabla,
                           dproj=dproj, l2=l2, pts2=pts2, pts3=pts3, w=w)


def face_extraction(mesh: PolyMesh, mapv: DofMapV, ci: int, fi_loc: int, comp: int) -> np.ndarray:
    """Matrix picking the scalar face DoFs of velocity component `comp` on
    local face fi_loc out of the cell-local DoF vector."""
    k = mapv.k
    lay = mapv.layouts[ci]
    f = mesh.cells[ci][0][fi_loc]
    g = mesh.face_geom[f]
    loop = mesh.faces[f]
    nv = len(loop)
    n_mom = mapv.n_face_moms
    E = np.zeros((nv * k + n_mom, lay.ndof))
    cvs = mesh.cell_vertices[ci]
    ces = mesh.cell_edges[ci]
    for i, v in enumerate(loop):
        vpos = int(np.searchsorted(cvs, v))
        E[i, lay.vertex[vpos, comp]] = 1.0
    eids, _ = mesh.face_edges[f]
    for le in range(nv):
        epos = int(np.searchsorted(ces, eids[le]))
        for p in range(k - 1):
            E[nv + le * (k - 1) + p, lay.edge[epos, p, comp]] = 1.0
    for d, direction in enumerate((g.normal, g.tau1, g.tau2)):
        E[nv * k:, lay.face[fi_loc, d, :]] += direction[comp] * np.eye(n_mom)
    return E


# ---------------------------------------------------------------------------
# Cell projections
# ---------------------------------------------------------------------------


@dataclass
class CellProjections:
    """Per-cell projector and moment matrices acting on the local DoF vector."""

    c: int
    k: int
    ndof: int
    h: float
    vol: float
    basis: MonomialBasis3        # degree k+1
    rule: quad.QuadRule
    mono_int: np.ndarray         # integrals of monomials up to degree max(2k+2, 3k-1)
    Hq: np.ndarray               # mass matrix of the degree k-1 basis
    Hk: np.ndarray               # mass matrix of the degree k basis
    div: np.ndarray              # (pi_{k-1,3}, ndof) coefficients of div v
    D: np.ndarray                # (ndof, 3 pi_{k,3}) DoF values of vector monomials
    pi_d: np.ndarray             # (3 pi_{k,3}, ndof) DoF-euclidean projection
    moments: np.ndarray          # (3 pi_{k,3}, ndof) interior moments
    pi_0k: np.ndarray            # (3 pi_{k,3}, ndof) L2 projection coefficients
    pi_nabla: np.ndarray         # (3 pi_{k,3}, ndof) H1-seminorm projection
    pi_0grad: np.ndarray         # (9 pi_{k-1,3}, ndof), row (3i+j)*pq+b: (grad v)_ij
    consistency: np.ndarray      # (ndof, ndof) integral of projected strains
    sigma: np.ndarray            # D-recipe stabilization weights

    @property
    def pi_d_dof(self) -> np.ndarray:
        return self.D @ self.pi_d

    def grad_coeff(self, comp: int, deriv: int) -> np.ndarray:
        pq = self.Hq.shape[0]
        return self.pi_0grad[(3 * comp + deriv) * pq: (3 * comp + deriv + 1) * pq, :]


def build_cell_projection(mesh: PolyMesh, mapv: DofMapV, ci: int,
                          faceprojs: dict[int, FaceProjections]) -> CellProjections:
    k = mapv.k
    lay = mapv.layouts[ci]
    geom = mesh.cell_geom[ci]
    h, vol = geom.h, geom.volume
    basis = cell_basis(mesh, ci, k + 1)
    pk = dim_poly(k, 3)
    pq = dim_poly(k - 1, 3)
    ndof = lay.ndof
    fids, signs = mesh.cells[ci]
    dec = decomp_basis(k)

    # the monomial integrals go to the rule's degree: the convective form
    # contracts them as triple products of degree 3k-1
    deg = cell_rule_exactness(k)
    rule = quad.cell_quadrature(mesh, ci, deg)
    ints = MonomialBasis3(deg, geom.barycenter, h).eval(rule.points).T @ rule.weights
    lk3 = _index3(deg)
    a_k = multi_indices(k, 3)
    a_q = multi_indices(k - 1, 3)
    a_k1 = multi_indices(k + 1, 3)
    Hk = _mass_from_integrals(ints, lk3, a_k, a_k)
    Hq = Hk[:pq, :pq]

    # per-face tables reused across all the moment systems
    phi3f = []    # deg k+1 monomial values at face quadrature points
    gphi3f = []   # their physical gradients
    for f in fids:
        fp = faceprojs[f]
        phi3f.append(basis.eval(fp.pts3))
        gphi3f.append(basis.eval_grad(fp.pts3)[:, :pk, :])

    # --- DoF values of the 3 pi_k vector monomials -----------------------------
    D = np.zeros((ndof, 3 * pk))
    vert_vals = basis.eval(mesh.vertices[mesh.cell_vertices[ci]])[:, :pk]
    edge_vals = basis.eval(mapv.edge_points[mesh.cell_edges[ci]].reshape(-1, 3))[:, :pk]
    for c in range(3):
        D[lay.vertex[:, c], c * pk: (c + 1) * pk] = vert_vals
        D[lay.edge[:, :, c].reshape(-1), c * pk: (c + 1) * pk] = edge_vals
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        g = mesh.face_geom[f]
        phi2f = face_basis(mesh, f, k - 2).eval(fp.pts2)
        mom = np.einsum("q,qm,qs->ms", fp.w, phi2f, phi3f[fi_loc][:, :pk]) / g.area
        for d, direction in enumerate((g.normal, g.tau1, g.tau2)):
            for c in range(3):
                D[lay.face[fi_loc, d, :], c * pk: (c + 1) * pk] += direction[c] * mom
    gsl, losl, hisl = dec.slices
    if mapv.n_d4:
        Clo = dec.T[:, losl]
        for c in range(3):
            D[lay.d4, c * pk: (c + 1) * pk] += Clo[c * pk: (c + 1) * pk, :].T @ Hk / vol
    Dm = basis.deriv_matrices()
    if mapv.n_d5:
        Hq_k1 = _mass_from_integrals(ints, lk3, a_q, a_k1)
        for c in range(3):
            dcoef = Dm[c][:, :pk] / h    # div of m e_c, coefficients over deg k+1
            D[lay.d5, c * pk: (c + 1) * pk] = (Hq_k1 @ dcoef)[1:, :] / vol

    Q, R = qr(D, mode="economic")
    if np.min(np.abs(np.diag(R))) < 1e-12 * np.max(np.abs(np.diag(R))):
        raise np.linalg.LinAlgError(
            f"DoF set does not separate [P_{k}]^3 on cell {ci} (geometry degeneracy)"
        )
    pi_d = solve_triangular(R, Q.T)

    # --- divergence reconstruction ---------------------------------------------
    rhs = np.zeros((pq, ndof))
    for fi_loc, f in enumerate(fids):
        rhs[0, lay.face[fi_loc, 0, 0]] += signs[fi_loc] * mesh.face_geom[f].area
    if mapv.n_d5:
        rhs[1:, lay.d5] = vol * np.eye(mapv.n_d5)
    div = solve(Hq, rhs)

    # --- projected traces at the face quadrature points ------------------------
    # FT[fi_loc][c]: (nq_f, ndof) values of the projected component-c trace
    FT = []
    FTn = []
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        phi2 = fp.basis.eval(fp.pts2)
        trace = [phi2 @ (fp.l2 @ face_extraction(mesh, mapv, ci, fi_loc, c)) for c in range(3)]
        FT.append(trace)
        nrm = mesh.face_geom[f].normal
        FTn.append(nrm[0] * trace[0] + nrm[1] * trace[1] + nrm[2] * trace[2])

    # --- interior moments via the adapted decomposition of [P_k]^3 -------------
    adapted = np.zeros((3 * pk, ndof))
    srcidx = [basis.index_of(s) for s in dec.grad_sources]
    Hgq = _mass_from_integrals(ints, lk3, dec.grad_sources, a_q)
    grad_rows = -h * (Hgq @ div)
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        phi_s = phi3f[fi_loc][:, srcidx]
        grad_rows += h * signs[fi_loc] * (phi_s * fp.w[:, None]).T @ FTn[fi_loc]
    adapted[gsl, :] = grad_rows
    if dec.n_cross_low:
        adapted[losl, lay.d4] = vol * np.eye(dec.n_cross_low)
    if dec.n_cross_high:
        Chi = dec.T[:, hisl]
        acc = np.zeros((dec.n_cross_high, ndof))
        for c in range(3):
            acc += Chi[c * pk: (c + 1) * pk, :].T @ Hk @ pi_d[c * pk: (c + 1) * pk, :]
        adapted[hisl, :] = acc
    moments = dec.Tinv_T @ adapted

    # --- L2 projection onto [P_k]^3 ---------------------------------------------
    pi_0k = np.empty_like(moments)
    for c in range(3):
        pi_0k[c * pk: (c + 1) * pk, :] = solve(Hk, moments[c * pk: (c + 1) * pk, :])

    # --- L2 projection of the gradient onto [P_{k-1}]^{3x3} ---------------------
    pi_0grad = np.empty((9 * pq, ndof))
    Dk = [Dm[j][:pk, :pk] for j in range(3)]
    for i in range(3):
        Mi = moments[i * pk: (i + 1) * pk, :]
        vterm = [-(Dk[j][:, :pq].T @ Mi) / h for j in range(3)]
        for fi_loc, f in enumerate(fids):
            fp = faceprojs[f]
            phiq_w = (phi3f[fi_loc][:, :pq] * fp.w[:, None]).T @ FT[fi_loc][i]
            nrm = mesh.face_geom[f].normal
            for j in range(3):
                vterm[j] += signs[fi_loc] * nrm[j] * phiq_w
        for j in range(3):
            pi_0grad[(3 * i + j) * pq: (3 * i + j + 1) * pq, :] = solve(Hq, vterm[j])

    # --- H1-seminorm projection onto [P_k]^3 -------------------------------------
    Gs = sum(Dk[d].T @ Hk @ Dk[d] for d in range(3)) / h**2
    lap = sum(Dk[d] @ Dk[d] for d in range(3)) / h**2
    area_tot = sum(mesh.face_geom[f].area for f in fids)
    bdry_int = np.zeros(pk)
    for fi_loc, f in enumerate(fids):
        bdry_int += phi3f[fi_loc][:, :pk].T @ faceprojs[fids[fi_loc]].w
    Gnab = np.zeros((3 * pk, 3 * pk))
    Bnab = np.zeros((3 * pk, ndof))
    for c in range(3):
        blk = slice(c * pk, (c + 1) * pk)
        Gnab[blk, blk] = Gs
        Bnab[blk, :] = -(lap.T @ moments[blk, :])
        for fi_loc, f in enumerate(fids):
            fp = faceprojs[f]
            dn = gphi3f[fi_loc] @ mesh.face_geom[f].normal
            Bnab[blk, :] += signs[fi_loc] * (dn * fp.w[:, None]).T @ FT[fi_loc][c]
        # boundary-mean fixing condition replaces the constant-monomial row
        Gnab[c * pk, :] = 0.0
        Gnab[c * pk, blk] = bdry_int / area_tot
        row = np.zeros(ndof)
        for fi_loc, f in enumerate(fids):
            g = mesh.face_geom[f]
            for d, direction in enumerate((g.normal, g.tau1, g.tau2)):
                row[lay.face[fi_loc, d, 0]] += direction[c] * g.area
        Bnab[c * pk, :] = row / area_tot
    pi_nabla = solve(Gnab, Bnab)

    # --- consistency part of the viscous form (symmetric-gradient pairing) ------
    cons = np.zeros((ndof, ndof))
    for i in range(3):
        for j in range(3):
            gij = pi_0grad[(3 * i + j) * pq: (3 * i + j + 1) * pq, :]
            gji = pi_0grad[(3 * j + i) * pq: (3 * j + i + 1) * pq, :]
            eij = 0.5 * (gij + gji)
            cons += eij.T @ Hq @ eij
    sigma = np.maximum(h, np.diag(cons))

    return CellProjections(
        c=ci, k=k, ndof=ndof, h=h, vol=vol, basis=basis, rule=rule,
        mono_int=ints, Hq=Hq, Hk=Hk, div=div, D=D, pi_d=pi_d, moments=moments,
        pi_0k=pi_0k, pi_nabla=pi_nabla, pi_0grad=pi_0grad,
        consistency=cons, sigma=sigma,
    )


def build_projections(mesh: PolyMesh, mapv: DofMapV) -> tuple[list[CellProjections], dict[int, FaceProjections]]:
    """All face and cell projection operators for the mesh."""
    faceprojs = {
        f: build_face_projections(mesh, f, mapv.k, mapv.edge_points)
        for f in range(mesh.n_faces)
    }
    cells = [build_cell_projection(mesh, mapv, ci, faceprojs) for ci in range(mesh.n_cells)]
    return cells, faceprojs
