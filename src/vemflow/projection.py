"""Computable polynomial projections from DoF vectors.

The scheme builds only the projections it reads.  Per face (scalar, applied
componentwise): the DoF-euclidean projection onto P_k(f) and the enhanced L2
projection onto P_{k+1}(f), whose high-order moments come from the
enhancement constraints.  Per cell: the divergence reconstruction in
P_{k-1}(P), the interior moments against [P_k(P)]^3 assembled through the
gradient/cross decomposition, and from those the L2 projection, the L2
projection of the gradient, the DoF-euclidean projection and the consistency
stiffness.

Enhancement constraints use the DoF-euclidean projection in place of the
H1-seminorm one on both faces and cells (the space definitions admit any
computable polynomial projection there), which is cheaper to build; the
H1-seminorm projections exist only as a test oracle.

The face projections are built per group of faces with one vertex count:
rules, basis values, DoF matrices, QR factors and the enhanced L2 solves are
stacked arrays over the group, and each face's `FaceProjections` views them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve, solve_triangular

from . import quadrature as quad
from .dofspace import DofMapV, cell_basis
from .meshing import MeshError, PolyMesh, raise_first
from .polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    _index_lookup,
    decomp_basis,
    dim_poly,
    multi_indices,
)


def cell_rule_exactness(k: int) -> int:
    # 2k+2 covers every mass/consistency pairing; the projected trilinear
    # convective integrand has degree 3k-1
    return max(2 * k + 2, 3 * k - 1)


@lru_cache(maxsize=None)
def _mass_index(degree: int, dim: int, rows: tuple, cols: tuple) -> np.ndarray:
    """Positions of the products m_a m_b (a in rows, b in cols) among the
    monomials of degree <= `degree` in `dim` variables."""
    lookup = _index_lookup(degree, dim)
    idx = np.array([[lookup[tuple(x + y for x, y in zip(a, b))] for b in cols] for a in rows])
    idx.flags.writeable = False
    return idx


def _mass_from_integrals(ints: np.ndarray, degree: int, dim: int, rows: tuple, cols: tuple) -> np.ndarray:
    """Gram matrix [int m_a m_b] gathered from the monomial integrals `ints`
    (stacked over a leading axis when `ints` is)."""
    return ints[..., _mass_index(degree, dim, rows, cols)]


def _solve_blocks(factor, blocks: list[np.ndarray]) -> np.ndarray:
    """Solutions for several right-hand side blocks from one Cholesky factor
    in one call, stacked by rows in block order.  The result is C-ordered,
    as the stacked contractions of the convection kernel expect (LAPACK
    returns Fortran order, which would change their summation order)."""
    X = np.ascontiguousarray(cho_solve(factor, np.hstack(blocks)))
    return np.vstack(np.hsplit(X, len(blocks)))


# ---------------------------------------------------------------------------
# Face projections (scalar members of the enhanced face space)
# ---------------------------------------------------------------------------


@dataclass
class FaceProjections:
    """Projection matrices acting on the scalar face DoF vector
    [vertex values (loop order) | per loop edge k-1 canonical values |
    moments against face monomials of degree <= k-2, divided by area].
    The arrays are views into the stacked arrays of the face's group."""

    f: int
    k: int
    ndof: int
    h: float                         # face diameter, the scale of the face basis
    dproj: np.ndarray                # (pi_{k,2}, ndof) DoF-euclidean projection
    l2: np.ndarray                   # (pi_{k+1,2}, ndof) enhanced L2 projection
    pts2: np.ndarray                 # face quadrature points, face frame
    pts3: np.ndarray                 # the same points in space
    w: np.ndarray                    # their weights
    vals: np.ndarray                 # (npts, pi_{k+1,2}) basis values at pts2

    @property
    def basis(self) -> MonomialBasis2:
        """The degree k+1 face basis that `dproj`, `l2` and `vals` refer to."""
        return MonomialBasis2(self.k + 1, np.zeros(2), self.h)


def build_face_projections(mesh: PolyMesh, faces: np.ndarray, k: int,
                           edge_points3: np.ndarray) -> list[FaceProjections]:
    """The projections of a group of faces with one vertex count (see
    `PolyMesh.face_groups`), built as stacked arrays over the group."""
    faces = np.asarray(faces, dtype=int)
    fs = mesh.face_stack
    h, area = fs.h[faces], fs.area[faces]
    loops = mesh.face_loops(faces)
    nf, nv = loops.shape
    n_mom = dim_poly(k - 2, 2)
    ndof = nv * k + n_mom
    npk = dim_poly(k, 2)
    npk1 = dim_poly(k + 1, 2)

    # one evaluation per group at the quadrature points, scaled by each
    # face's h_f so that one unit basis serves every face: the degree k+1
    # basis values are the leading columns of the degree 2k+2 ones (graded
    # order, same centre and scale)
    deg = 2 * (k + 1)
    pts2, pts3, w = quad.face_quadrature(mesh, faces, deg)
    unit = MonomialBasis2(deg, np.zeros(2), 1.0)
    phi = unit.eval((pts2 / h[:, None, None]).reshape(-1, 2)).reshape(nf, -1, unit.n)
    ints = (w[:, None, :] @ phi)[:, 0]
    a_k = multi_indices(k, 2)
    a_k1 = multi_indices(k + 1, 2)

    # --- DoF-values matrix of the deg-k monomials -----------------------------
    # rows: the loop vertices, the edge points of each loop edge, the moments
    eids = np.array([mesh.face_edges[f][0] for f in faces])
    bpts = np.concatenate([mesh.vertices[loops], edge_points3[eids].reshape(nf, -1, 3)], axis=1)
    # in-plane coordinates, one matrix-vector product per face and direction
    frame = np.stack([fs.tau1[faces], fs.tau2[faces]], axis=1)[..., None]     # (nf, 2, 3, 1)
    b2 = ((bpts - fs.centroid[faces][:, None])[:, None] @ frame)[..., 0].transpose(0, 2, 1)
    b2 /= h[:, None, None]
    D = np.concatenate([unit.eval(b2.reshape(-1, 2)).reshape(nf, nv * k, -1)[..., :npk],
                        _mass_from_integrals(ints, deg, 2, a_k[:n_mom], a_k) / area[:, None, None]],
                       axis=1)

    # --- DoF-euclidean projection ---------------------------------------------
    Q, R = np.linalg.qr(D)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    raise_first(diag.min(axis=1) < 1e-12 * diag.max(axis=1),
                lambda f: f"rank-deficient DoF system on face {f}",
                error=np.linalg.LinAlgError, ids=faces)
    dproj = np.linalg.solve(R, Q.transpose(0, 2, 1))

    # --- enhanced L2 projection onto P_{k+1}(f) --------------------------------
    MOM = np.zeros((nf, npk1, ndof))
    MOM[:, :n_mom, nv * k:] = area[:, None, None] * np.eye(n_mom)
    MOM[:, n_mom:, :] = _mass_from_integrals(ints, deg, 2, a_k1[n_mom:], a_k) @ dproj
    l2 = solve(_mass_from_integrals(ints, deg, 2, a_k1, a_k1), MOM)

    vals = np.ascontiguousarray(phi[..., :npk1])
    return [FaceProjections(f=f, k=k, ndof=ndof, h=hf, dproj=dproj[i], l2=l2[i], pts2=pts2[i],
                            pts3=pts3[i], w=w[i], vals=vals[i])
            for i, (f, hf) in enumerate(zip(faces.tolist(), h.tolist()))]


def face_extraction(mesh: PolyMesh, mapv: DofMapV, ci: int, fi_loc: int,
                    fp: FaceProjections) -> np.ndarray:
    """The enhanced L2 projection of local face fi_loc acting on the
    cell-local DoF vector, one slice per velocity component: shape
    (3, pi_{k+1,2}, ndof).  The columns of fp.l2 go to the cell's vertex and
    edge DoFs on the face; its moment columns go to the normal and tangential
    face moments, scaled by the component of each direction."""
    lay = mapv.layouts[ci]
    f = mesh.cells[ci][0][fi_loc]
    g = mesh.face_geom[f]
    nb = len(mesh.faces[f]) * mapv.k            # vertex and edge values on the face
    vpos = np.searchsorted(mesh.cell_vertices[ci], mesh.faces[f])
    epos = np.searchsorted(mesh.cell_edges[ci], mesh.face_edges[f][0])
    # (3, nb): local column of each face value, per component
    cols = np.concatenate([lay.vertex[vpos], lay.edge[epos].reshape(-1, 3)]).T
    out = np.zeros((3, fp.l2.shape[0], lay.ndof))
    for c in range(3):
        out[c][:, cols[c]] = fp.l2[:, :nb]
    frame = np.stack([g.normal, g.tau1, g.tau2])   # frame[d, c]: component c of direction d
    out[:, :, lay.face[fi_loc]] = fp.l2[None, :, None, nb:] * frame.T[:, None, :, None]
    return out


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
    a_k = multi_indices(k, 3)
    a_q = multi_indices(k - 1, 3)
    a_k1 = multi_indices(k + 1, 3)
    Hk = _mass_from_integrals(ints, deg, 3, a_k, a_k)
    Hq = Hk[:pq, :pq]
    # Hq is the leading block of Hk, so its Cholesky factor is the leading
    # block of Hk's: one factorisation serves both mass matrices
    chol_k = cho_factor(Hk)
    chol_q = (chol_k[0][:pq, :pq], chol_k[1])

    # deg k+1 monomial values at the face quadrature points, reused across
    # all the moment systems
    phi3f = [basis.eval(faceprojs[f].pts3) for f in fids]

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
        phi2f = fp.vals[:, :mapv.n_face_moms]
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
        Hq_k1 = _mass_from_integrals(ints, deg, 3, a_q, a_k1)
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
    div = _solve_blocks(chol_q, [rhs])

    # --- projected traces at the face quadrature points ------------------------
    # FT[fi_loc][c]: (nq_f, ndof) values of the projected component-c trace
    FT = []
    FTn = []
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        trace = fp.vals @ face_extraction(mesh, mapv, ci, fi_loc, fp)
        FT.append(trace)
        nrm = mesh.face_geom[f].normal
        FTn.append(nrm[0] * trace[0] + nrm[1] * trace[1] + nrm[2] * trace[2])

    # --- interior moments via the adapted decomposition of [P_k]^3 -------------
    adapted = np.zeros((3 * pk, ndof))
    srcidx = [basis.index_of(s) for s in dec.grad_sources]
    Hgq = _mass_from_integrals(ints, deg, 3, dec.grad_sources, a_q)
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
    pi_0k = _solve_blocks(chol_k, np.vsplit(moments, 3))

    # --- L2 projection of the gradient onto [P_{k-1}]^{3x3} ---------------------
    Dk = [Dm[j][:pk, :pk] for j in range(3)]
    vterms = []                     # row-block order (3i+j): (grad v)_ij
    for i in range(3):
        Mi = moments[i * pk: (i + 1) * pk, :]
        vterm = [-(Dk[j][:, :pq].T @ Mi) / h for j in range(3)]
        for fi_loc, f in enumerate(fids):
            fp = faceprojs[f]
            phiq_w = (phi3f[fi_loc][:, :pq] * fp.w[:, None]).T @ FT[fi_loc][i]
            nrm = mesh.face_geom[f].normal
            for j in range(3):
                vterm[j] += signs[fi_loc] * nrm[j] * phiq_w
        vterms += vterm
    pi_0grad = _solve_blocks(chol_q, vterms)

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
        pi_0k=pi_0k, pi_0grad=pi_0grad,
        consistency=cons, sigma=sigma,
    )


def build_projections(mesh: PolyMesh, mapv: DofMapV) -> tuple[list[CellProjections], dict[int, FaceProjections]]:
    """All face and cell projection operators for the mesh, the faces by one
    `build_face_projections` call per group of equal vertex count."""
    faceprojs, failed = {}, []
    for faces in mesh.face_groups():
        try:
            faceprojs.update(zip(faces.tolist(),
                                 build_face_projections(mesh, faces, mapv.k, mapv.edge_points)))
        except (np.linalg.LinAlgError, MeshError) as exc:
            failed.append(exc)
    if failed:   # the first offending face of the mesh, not of the first group
        raise min(failed, key=lambda exc: exc.entity)
    cells = [build_cell_projection(mesh, mapv, ci, faceprojs) for ci in range(mesh.n_cells)]
    return cells, faceprojs
