"""Computable polynomial projections from DoF vectors.

The scheme builds only the projections it reads.  Per face (scalar, applied
componentwise): the DoF-euclidean projection onto P_k(f) and the enhanced L2
projection onto P_{k+1}(f), whose high-order moments come from the
enhancement constraints.  Per cell: the divergence reconstruction in
P_{k-1}(P), the interior moments against [P_k(P)]^3 assembled through the
gradient/cross decomposition, and from those the L2 projection, the L2
projection of the gradient, the DoF-euclidean projection, Pi^D = D pi_d on the
DoFs and the consistency stiffness: the last two are what assembly reads, so
they are stored, not formed on each read.

Enhancement constraints use the DoF-euclidean projection in place of the
H1-seminorm one on both faces and cells (the space definitions admit any
computable polynomial projection there), which is cheaper to build; the
H1-seminorm projections exist only as a test oracle.

The face projections are built per group of faces with one vertex count and
the cell projections per group of the DoF map, whose local entity tables they
read: rules, basis values, DoF matrices and solves are stacked arrays over
the group, which each entity's record views.  The cell kernel's stacked
algebra runs one block of at most `dofspace.CELL_BLOCK` classes at a time, as
every per-cell build does, and drops each temporary after its last reader, so
its transient memory is bounded by the block, not the group; a block's cells
view that block's stacks.  The QR and the mass solves go through
numpy.linalg, which loops over the stack in C; the face L2 solve, on an
ill-conditioned degree k+1 mass matrix, goes through scipy.linalg.solve,
whose LU rounds as the per-face oracle's does.  Only a class representative's
rule and monomial integrals are made cell by cell; its degree-k basis values
at the rule (`rule_vals`) serve the load and errors.

Within a group, translates share their projections.  A class of translates
holds the entities whose geometry relative to their centre agrees once
rounded to TRANSLATE_RTOL times their diameter: for a cell, about its
barycentre, its vertices, its edge points (so edge orientation counts),
every local face's loop in loop order, and its face signs; for a face, about
its centroid, its loop and its edge points in loop-edge order.  The stacked
algebra runs once per class, on its lowest-id member, and every member's
record views that member's arrays: for cells `mono_int`, `Hq`, `div`,
`pi_d_dof`, `pi_0k`, `pi_0grad`, `consistency`, `sigma` and `rule_vals`, for
faces `vals` and `l2`, all of them made from the rule in the entity's scaled
frame (Hk, D, pi_d and the face DoF-euclidean projection are formed but not
kept: nothing reads them).  A cell's rule is its class's too:
`quadrature.cell_quadrature` runs on the representative only, and a member
holds that rule moved by the shift of its barycentre, sharing the read-only
weights and forming its points when read (a face group still makes its one
`face_quadrature`).  What stays the entity's own is its h, volume and rule
points for a cell, and its rule for a face.  The classes live for one kernel
call; on a mesh without translates a first pass on cheap invariants leaves
every entity alone before the full key is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve

from . import quadrature as quad
from .dofspace import CellDofLayout, DofGroup, DofMapV, cell_blocks
from .meshing import MeshError, PolyMesh, by_appearance, raise_first, read_only
from .polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    decomp_basis,
    dim_poly,
    multi_indices,
    product_positions,
)


# Entities whose geometry relative to their centre agrees to this fraction of
# their diameter are translates of one another and share their projections
TRANSLATE_RTOL = 1e-12


def cell_integral_degree(k: int) -> int:
    # the highest degree of the monomial integrals that are read: 2k for the
    # mass pairings, 3k-1 for the projected trilinear convective integrand
    return max(2 * k, 3 * k - 1)


def cell_rule_exactness(k: int) -> int:
    # the monomial integrals, and 2k+2 for the load and error integrands,
    # which are not polynomials
    return max(2 * k + 2, cell_integral_degree(k))


def _solve_blocks(H: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Solutions for the right-hand side blocks (n, b, m, ndof) against each
    cell's mass matrix H (n, m, m) in one `np.linalg.solve`, stacked by rows
    in block order to (n, b*m, ndof) and C-ordered, as the stacked
    contractions of the convection kernel expect."""
    n, b, m, d = blocks.shape
    X = np.linalg.solve(H, blocks.transpose(0, 2, 1, 3).reshape(n, m, b * d))
    return np.ascontiguousarray(X.reshape(n, m, b, d).transpose(0, 2, 1, 3)).reshape(n, b * m, d)


def _dof_projection(D: np.ndarray, ids: np.ndarray, message) -> np.ndarray:
    """The DoF-euclidean projections (D^T D)^-1 D^T of a group stacked over a
    leading axis, by QR; raises `LinAlgError(message(i))` for the first
    entity i whose DoFs do not separate the polynomials."""
    Q, R = np.linalg.qr(D)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    raise_first(diag.min(axis=1) < 1e-12 * diag.max(axis=1), message,
                error=np.linalg.LinAlgError, ids=ids)
    return np.linalg.solve(R, Q.transpose(0, 2, 1))


def _translate_classes(h: np.ndarray, shape: np.ndarray, points,
                       signs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Split a group of entities into classes of translates: the position of
    each class's first member, its representative, in group order, and the
    class of every entity.  Entities share a class when their coordinates
    relative to their centre, `points(i)` (len(i), m) for the positions i,
    agree once rounded to TRANSLATE_RTOL times their diameter `h`, and so do
    their `signs` (n, j).  A first pass on the cheap invariants log h and
    `shape` (a size over a power of h), rounded to TRANSLATE_RTOL, leaves
    alone every entity that shares them with no other: `points` is asked
    only for the others."""
    n = len(h)
    cheap = np.rint(np.stack([np.log(h), shape], axis=1) / TRANSLATE_RTOL).astype(np.int64)
    order = np.lexsort(cheap.T)
    tie = np.all(cheap[order[1:]] == cheap[order[:-1]], axis=1)
    twins = np.sort(order[np.append(tie, False) | np.insert(tie, 0, False)])
    if not len(twins):
        return np.arange(n), np.arange(n)
    rel = points(twins)
    key = np.zeros((n, 2 + rel.shape[1]), dtype=np.int64)
    key[:, :2] = cheap
    key[twins, 2:] = np.rint(rel / (TRANSLATE_RTOL * h[twins, None]))
    return by_appearance(key if signs is None else np.hstack([key, signs]), axis=0)


# ---------------------------------------------------------------------------
# Face projections (scalar members of the enhanced face space)
# ---------------------------------------------------------------------------


@dataclass
class FaceProjections:
    """Projection matrices acting on the scalar face DoF vector
    [vertex values (loop order) | per loop edge k-1 canonical values |
    moments against face monomials of degree <= k-2, divided by area].
    The arrays are read-only views into the stacked arrays of the face's
    group."""

    l2: np.ndarray                   # (pi_{k+1,2}, ndof) enhanced L2 projection
    pts3: np.ndarray                 # face quadrature points in space
    w: np.ndarray                    # their weights
    vals: np.ndarray                 # (npts, pi_{k+1,2}) basis values at the points


def build_face_projections(mesh: PolyMesh, faces: np.ndarray, k: int,
                           edge_points3: np.ndarray) -> list[FaceProjections]:
    """The projections of a group of faces with one vertex count (see
    `PolyMesh.face_groups`), built as stacked arrays over the group's
    classes of translates (see `_translate_classes`): each face has its own
    rule, and `l2` and `vals` view those of its class's first face."""
    faces = np.asarray(faces, dtype=int)
    fs = mesh.face_stack
    h, area = fs.h[faces], fs.area[faces]
    loops = mesh.face_loops(faces)
    nv = loops.shape[1]
    n_mom = dim_poly(k - 2, 2)
    ndof = nv * k + n_mom
    npk = dim_poly(k, 2)
    npk1 = dim_poly(k + 1, 2)
    deg = 2 * (k + 1)
    pts2_all, pts3, w_all = quad.face_quadrature(mesh, faces, deg)
    # the DoF points, rows: the loop vertices, the edge points of each loop edge
    eids = np.array([mesh.face_edges[f][0] for f in faces])
    bpts = np.concatenate([mesh.vertices[loops], edge_points3[eids].reshape(len(faces), -1, 3)], axis=1)
    bpts -= fs.centroid[faces][:, None]
    rep, cls = _translate_classes(h, area / h ** 2, lambda i: bpts[i].reshape(len(i), -1))
    faces, h, area, bpts, pts2, w = (a[rep] for a in (faces, h, area, bpts, pts2_all, w_all))
    nf = len(faces)

    # one evaluation per group at the quadrature points, scaled by each
    # face's h_f so that one unit basis serves every face: the degree k+1
    # basis values are the leading columns of the degree 2k+2 ones (graded
    # order, same centre and scale)
    unit = MonomialBasis2(deg, np.zeros(2), 1.0)
    phi = unit.eval((pts2 / h[:, None, None]).reshape(-1, 2)).reshape(nf, -1, unit.n)
    ints = (w[:, None, :] @ phi)[:, 0]
    a_k = multi_indices(k, 2)
    a_k1 = multi_indices(k + 1, 2)

    # --- DoF-values matrix of the deg-k monomials -----------------------------
    # in-plane coordinates, one matrix-vector product per face and direction
    frame = np.stack([fs.tau1[faces], fs.tau2[faces]], axis=1)[..., None]     # (nf, 2, 3, 1)
    b2 = (bpts[:, None] @ frame)[..., 0].transpose(0, 2, 1)
    b2 /= h[:, None, None]
    D = np.concatenate([unit.eval(b2.reshape(-1, 2)).reshape(nf, nv * k, -1)[..., :npk],
                        ints[..., product_positions(deg, 2, a_k[:n_mom], a_k)] / area[:, None, None]],
                       axis=1)

    # --- DoF-euclidean projection ---------------------------------------------
    dproj = _dof_projection(D, faces, lambda f: f"rank-deficient DoF system on face {f}")

    # --- enhanced L2 projection onto P_{k+1}(f) --------------------------------
    MOM = np.zeros((nf, npk1, ndof))
    MOM[:, :n_mom, nv * k:] = area[:, None, None] * np.eye(n_mom)
    MOM[:, n_mom:, :] = ints[..., product_positions(deg, 2, a_k1[n_mom:], a_k)] @ dproj
    l2 = solve(ints[..., product_positions(deg, 2, a_k1, a_k1)], MOM)

    # one read-only view per class, which all its members hold, and one per face of its rule
    vals = np.ascontiguousarray(phi[..., :npk1])
    read_only(l2, vals, pts3, w_all)
    l2, vals = list(l2), list(vals)
    return [FaceProjections(l2=l2[j], pts3=pts3[i], w=w_all[i], vals=vals[j])
            for i, j in enumerate(cls.tolist())]


def _face_extractions(mesh: PolyMesh, lay: CellDofLayout, slot: int, faces: np.ndarray, cv: np.ndarray,
                      ce: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projections `l2` (n, pi_{k+1,2}, face ndof) of local face `slot`,
    `faces`, of n cells of layout `lay` with local vertices `cv` and edges
    `ce`, on the cell-local DoF vectors, per velocity component, as local
    DoF columns (n, 3, m) and values (n, 3, pi_{k+1,2}, m)
    for `_place`: l2's vertex and edge columns go to the cell's DoFs on the
    face, its moment columns to the normal and tangential face moments, scaled
    by the component of each direction."""
    n = len(faces)
    # local position of each face vertex and edge among the cell's
    fe = np.array([mesh.face_edges[f][0] for f in faces])
    vpos = np.argmax(cv[:, :, None] == mesh.face_loops(faces)[:, None], axis=1)
    epos = np.argmax(ce[:, :, None] == fe[:, None], axis=1)
    vcols = np.concatenate([lay.vertex[vpos], lay.edge[epos].reshape(n, -1, 3)], axis=1)
    nb = vcols.shape[1]
    cols = np.concatenate([vcols.transpose(0, 2, 1),
                           np.broadcast_to(lay.face[slot].ravel(), (n, 3, lay.face[slot].size))], axis=2)
    fs = mesh.face_stack
    frame = np.stack([fs.normal[faces], fs.tau1[faces], fs.tau2[faces]], axis=2)   # [n, c, d]
    moms = l2[:, None, :, None, nb:] * frame[:, :, None, :, None]
    return cols, np.concatenate([np.broadcast_to(l2[:, None, :, :nb], moms.shape[:3] + (nb,)),
                                 moms.reshape(moms.shape[:3] + (-1,))], axis=3)


def _place(cols: np.ndarray, values: np.ndarray, ndof: int) -> np.ndarray:
    """Compact face columns `values` (n, 3, rows, m) spread over the local
    DoF columns `cols` (n, 3, m): (n, 3, rows, ndof)."""
    out = np.zeros(values.shape[:3] + (ndof,))
    np.put_along_axis(out, cols[:, :, None], values, axis=3)
    return out


def face_extraction(mesh: PolyMesh, mapv: DofMapV, ci: int, fi_loc: int,
                    fp: FaceProjections) -> np.ndarray:
    """The enhanced L2 projection of local face fi_loc of cell ci acting on the
    cell-local DoF vector, one slice per velocity component: (3, pi_{k+1,2}, ndof).
    The cell's mesh lists of vertices and edges are in its local order."""
    cols, values = _face_extractions(mesh, mapv.layouts[ci], fi_loc, mesh.cells[ci][0][[fi_loc]],
                                     mesh.cell_vertices[ci][None], mesh.cell_edges[ci][None], fp.l2[None])
    return _place(cols, values, mapv.layouts[ci].ndof)[0]


# ---------------------------------------------------------------------------
# Cell projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CellProjections:
    """Per-cell projector and moment matrices acting on the local DoF vector.
    The matrices are views into the stacked arrays of the cell's group.  A
    record is immutable, fields and arrays alike, and compares by identity."""

    k: int
    ndof: int
    h: float
    vol: float
    rule: quad.QuadRule | quad.TranslatedRule   # on a member, its class's rule moved to it
    mono_int: np.ndarray         # integrals of monomials up to degree max(2k, 3k-1)
    Hq: np.ndarray               # mass matrix of the degree k-1 basis
    div: np.ndarray              # (pi_{k-1,3}, ndof) coefficients of div v
    pi_d_dof: np.ndarray         # (ndof, ndof) D pi_d, Pi^D acting on the DoFs
    pi_0k: np.ndarray            # (3 pi_{k,3}, ndof) L2 projection coefficients
    pi_0grad: np.ndarray         # (9 pi_{k-1,3}, ndof), row (3i+j)*pq+b: (grad v)_ij
    consistency: np.ndarray      # (ndof, ndof) eps^T Hq eps summed over the strains
    sigma: np.ndarray            # D-recipe stabilization weights
    rule_vals: np.ndarray        # (n rule points, pi_{k,3}) degree k basis values at the rule


def build_cell_projection(mesh: PolyMesh, mapv: DofMapV, group: DofGroup,
                          faceprojs: dict[int, FaceProjections]) -> list[CellProjections]:
    """The projections of a group of the DoF map, from its local entity
    tables, built over the group's classes of translates
    (see `_translate_classes`) as stacked arrays, one block of at most
    CELL_BLOCK classes at a time (see `_cell_stacks`).  Each cell has its
    own geometry; its rule is its class's first cell's, moved by the
    shift of its barycentre, and the arrays made from the rule in the
    cell's scaled frame view those of the first cell, whose rule and
    monomial integrals are the only ones made cell by cell."""
    cells, fids, cv, ce = group.cells, group.faces, group.vertices, group.edges
    k = mapv.k
    ndof = group.layout.ndof
    cs = mesh.cell_stack
    h, vol, xb = cs.h[cells], cs.volume[cells], cs.barycenter[cells]
    signs = np.array([mesh.cells[c][1] for c in cells])

    def about_barycentre(i):
        """The class key's points: the vertices, the edge points (so edge
        orientation counts) and every local face's loop in loop order."""
        return (np.concatenate([mesh.vertices[cv[i]], mapv.edge_points[ce[i]].reshape(len(i), -1, 3)]
                               + [mesh.vertices[mesh.face_loops(f)] for f in fids[i].T], axis=1)
                - xb[i, None]).reshape(len(i), -1)

    rep, cls = _translate_classes(h, vol / h ** 3, about_barycentre, signs)
    h_ids, vol_ids, xb_ids = h, vol, xb
    cells, h, vol, xb, fids, signs, cv, ce = (a[rep] for a in (cells, h, vol, xb, fids, signs, cv, ce))
    # one rule per class, on its representative, read-only since its members share it
    rules = [quad.cell_quadrature(mesh, c, cell_rule_exactness(k)) for c in cells.tolist()]
    read_only(*(a for rule in rules for a in (rule.points, rule.weights)))

    # the monomial integrals go to the highest degree read, below the rule's
    # exactness at k = 2: the convective form contracts them as triple
    # products of degree 3k-1; the leading pi_k columns of the same
    # evaluation are kept for the load and the errors
    pk = dim_poly(k, 3)
    unit = MonomialBasis3(cell_integral_degree(k), np.zeros(3), 1.0)       # on points scaled by h_P
    ints, rule_vals = [], []
    for rule, xc, hc in zip(rules, xb, h.tolist()):
        phi = unit.eval((rule.points - xc) / hc)
        ints.append(phi.T @ rule.weights)
        rule_vals.append(phi[:, :pk].copy())
    ints = np.array(ints)
    read_only(ints, *rule_vals)

    # the cells view the stacks of their class's block, one view per class
    views = {"rule_vals": rule_vals}
    for b in cell_blocks(len(cells)):
        stacks = _cell_stacks(mesh, mapv, faceprojs,
                              *(a[b] for a in (cells, h, vol, xb, fids, signs, cv, ce, ints)))
        read_only(*stacks.values())
        for name, a in stacks.items():
            views.setdefault(name, []).extend(a)
    # a member's rule is its class's moved by the shift of its barycentre
    return [CellProjections(k=k, ndof=ndof, h=hc, vol=vc,
                            rule=rules[j] if i == rep[j] else quad.TranslatedRule(rules[j], xb_ids[i] - xb[j]),
                            **{name: v[j] for name, v in views.items()})
            for i, (hc, vc, j) in enumerate(zip(h_ids.tolist(), vol_ids.tolist(), cls.tolist()))]


def _cell_stacks(mesh: PolyMesh, mapv: DofMapV, faceprojs: dict[int, FaceProjections],
                 cells: np.ndarray, h: np.ndarray, vol: np.ndarray, xb: np.ndarray, fids: np.ndarray,
                 signs: np.ndarray, cv: np.ndarray, ce: np.ndarray, ints: np.ndarray) -> dict:
    """The stacked arrays that the cell records view, for `cells` of one
    face layout, given with their h, volumes, barycentres, local faces and
    face signs, vertices, edges and monomial integrals.  Each temporary goes
    after its last reader, so that the peak holds few of them at a time."""
    k = mapv.k
    lay = mapv.layouts[cells[0]]
    ndof = lay.ndof
    fs = mesh.face_stack
    n = len(cells)
    pk, pq = dim_poly(k, 3), dim_poly(k - 1, 3)
    a_k, a_q = multi_indices(k, 3), multi_indices(k - 1, 3)
    dec = decomp_basis(k)
    gsl, losl, hisl = dec.slices
    deg = cell_integral_degree(k)
    Hk = ints[..., product_positions(deg, 3, a_k, a_k)]
    Hq = Hk[:, :pq, :pq]

    # --- divergence reconstruction ---------------------------------------------
    rhs = np.zeros((n, pq, ndof))
    rhs[:, 0, lay.face[:, 0, 0]] = signs * fs.area[fids]
    rhs[:, 1:, lay.d5] = vol[:, None, None] * np.eye(mapv.n_d5)
    div = _solve_blocks(Hq, rhs[:, None])
    del rhs

    # --- basis values at the vertices, the edge points and the face points of
    # every local face slot, in one evaluation; phi[i] (n, points, basis) views
    # the values at one kind of point --------------------------------------------
    unit = MonomialBasis3(k + 1, np.zeros(3), 1.0)
    slots = [[faceprojs[f] for f in faces] for faces in fids.T.tolist()]
    pts = [mesh.vertices[cv], mapv.edge_points[ce].reshape(n, len(ce[0]) * (k - 1), 3)]
    pts += [np.array([fp.pts3 for fp in fps]) for fps in slots]
    vals = unit.eval(np.concatenate([((p - xb[:, None]) / h[:, None, None]).reshape(-1, 3) for p in pts])).T
    phi = [v.reshape(unit.n, n, -1).transpose(1, 2, 0)
           for v in np.split(vals, np.cumsum([p.shape[0] * p.shape[1] for p in pts[:-1]]), axis=1)]

    # --- DoF values of the 3 pi_k vector monomials ------------------------------
    D = np.zeros((n, ndof, 3 * pk))
    Dm = unit.deriv_matrices()
    Hq_k1 = ints[..., product_positions(deg, 3, a_q, multi_indices(k + 1, 3))]
    for c in range(3):
        cols = slice(c * pk, (c + 1) * pk)
        D[:, lay.vertex[:, c], cols] = phi[0][..., :pk]
        D[:, lay.edge[:, :, c].ravel(), cols] = phi[1][..., :pk]
        D[:, lay.d4, cols] = dec.T[cols, losl].T @ Hk / vol[:, None, None]
        # the divergence of m e_c has the coefficients Dm[c] over deg k+1
        D[:, lay.d5, cols] = (Hq_k1 @ (Dm[c][:, :pk] / h[:, None, None]))[:, 1:] / vol[:, None, None]

    # --- per local face slot: the face moment rows of D, and the moments of
    # the projected traces against the cell basis for the gradient terms -------
    sn = signs[..., None] * fs.normal[fids]                  # signed normals
    srcidx = unit.index_of(dec.grad_sources)
    grad_rows = np.zeros((n, dec.n_grad, ndof))
    vterms = np.zeros((n, 3, 3, pq, ndof))                    # [i, j]: (grad v)_ij against P_{k-1}
    for slot, (fps, phif) in enumerate(zip(slots, phi[2:])):
        w, fvals, l2 = (np.array([getattr(fp, a) for fp in fps]) for a in ("w", "vals", "l2"))
        f = fids[:, slot]
        frame = np.stack([fs.normal[f], fs.tau1[f], fs.tau2[f]], axis=1)  # [n, d, c]
        mom = np.einsum("nq,nqm,nqs->nms", w, fvals[..., :mapv.n_face_moms], phif[..., :pk])
        D[:, lay.face[slot].ravel()] = np.einsum(
            "ndc,nms->ndmcs", frame, mom / fs.area[f, None, None]).reshape(n, -1, 3 * pk)
        # the trace values at the face points first, then their moments; the
        # other orders lose up to 75 times more to round-off at k = 4
        cols, ext = _face_extractions(mesh, lay, slot, f, cv, ce, l2)
        phiw = (phif * w[..., None]).transpose(0, 2, 1)
        traces = _place(cols, phiw[:, None] @ (fvals[:, None] @ ext), ndof)   # (n, 3, pi_{k+1,3}, ndof)
        grad_rows += h[:, None, None] * np.einsum("nc,ncad->nad", sn[:, slot], traces[:, :, srcidx])
        vterms += sn[:, slot, None, :, None, None] * traces[:, :, None, :pq]
    del pts, vals, phi, phif, phiw, ext, traces
    pi_d = _dof_projection(D, cells, lambda c: f"DoF set does not separate [P_{k}]^3 on cell {c} "
                                               "(geometry degeneracy)")
    pi_d_dof = D @ pi_d
    del D

    # --- interior moments via the adapted decomposition of [P_k]^3 -------------
    adapted = np.zeros((n, 3 * pk, ndof))
    adapted[:, gsl] = grad_rows - h[:, None, None] * (
        ints[..., product_positions(deg, 3, dec.grad_sources, a_q)] @ div)
    del grad_rows
    adapted[:, losl, lay.d4] = vol[:, None, None] * np.eye(dec.n_cross_low)
    Chi = dec.T[:, hisl].reshape(3, pk, -1).transpose(0, 2, 1)          # [c]: (n_hi, pk)
    adapted[:, hisl] = (Chi @ Hk[:, None] @ pi_d.reshape(n, 3, pk, ndof)).sum(axis=1)
    moments = dec.Tinv_T @ adapted
    del adapted, pi_d

    # --- L2 projections onto [P_k]^3 and of the gradient onto [P_{k-1}]^{3x3} ---
    pi_0k = _solve_blocks(Hk, moments.reshape(n, 3, pk, ndof))
    DT = np.stack([Dm[j][:pk, :pq].T for j in range(3)])                # [j]: (pq, pk)
    vterms -= DT @ moments.reshape(n, 3, 1, pk, ndof) / h[:, None, None, None, None]
    del moments
    pi_0grad = _solve_blocks(Hq, vterms.reshape(n, 9, pq, ndof))
    del vterms

    # the symmetric-gradient coefficients eps (n, 9, pq, ndof), the consistency
    # matrix strain by strain (one stacked product over the strains would hold
    # all nine at once), and the D-recipe weights, its diagonal
    g = pi_0grad.reshape(n, 3, 3, pq, ndof)
    eps = (0.5 * (g + g.transpose(0, 2, 1, 3, 4))).reshape(n, 9, pq, ndof)
    consistency = np.zeros((n, ndof, ndof))
    for e in eps.transpose(1, 0, 2, 3):
        consistency += e.transpose(0, 2, 1) @ Hq @ e
    sigma = np.maximum(h[:, None], np.einsum("nsad,nsad->nd", eps, Hq[:, None] @ eps))
    return dict(mono_int=ints, Hq=Hq, div=div, pi_d_dof=pi_d_dof, pi_0k=pi_0k,
                pi_0grad=pi_0grad, consistency=consistency, sigma=sigma)


def _by_group(groups: list[tuple], kernel) -> dict:
    """kernel(group) for each pair (entity ids, group), keyed by id; the error
    raised is that of the lowest offending id of the mesh, not the first."""
    out, failed = {}, []
    for ids, group in groups:
        try:
            out.update(zip(ids.tolist(), kernel(group)))
        except (np.linalg.LinAlgError, MeshError) as exc:
            failed.append(exc)
    if failed:
        raise min(failed, key=lambda exc: getattr(exc, "entity", -1))
    return out


def build_projections(mesh: PolyMesh, mapv: DofMapV) -> tuple[list[CellProjections], dict[int, FaceProjections]]:
    """All face and cell projection operators for the mesh: one
    `build_face_projections` call per group of faces of equal vertex count,
    then one `build_cell_projection` call per group of cells of one face
    layout, the DoF map's groups."""
    faceprojs = _by_group([(faces, faces) for faces in mesh.face_groups()],
                          lambda faces: build_face_projections(mesh, faces, mapv.k, mapv.edge_points))
    cells = _by_group([(g.cells, g) for g in mapv.groups],
                      lambda g: build_cell_projection(mesh, mapv, g, faceprojs))
    return [cells[c] for c in range(mesh.n_cells)], faceprojs
