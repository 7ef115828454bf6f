"""Local and global assembly of the discrete forms.

The discrete problem follows the saddle layout

    nu a_h(u, v) + c_h(u; u, v) + b(v, p) = (f_h, v)
                                  b(u, q) = 0

with b(v, q) the exact pairing of div v against the pressure monomials,
which the DoFs fix: the boundary flux for the constant and |P| times the
divergence moments for the others.  a_h is the projected-strain
consistency term plus the D-recipe stabilization acting through
(I - Pi^D).  The zero-mean pressure constraint is one dense row of
pressure-basis integrals, added only when every boundary face is Dirichlet.

The convective form c_h(w; u, v) pairs only projected polynomials, so C(w)
and its Newton companion Cg(w) are built without quadrature points: exact
contractions of Pi^0_k, the projected gradient and the cell's monomial
integrals, batched over blocks of at most `dofspace.CELL_BLOCK` cells that
share a local DoF layout.

A, C and Cg are CSC on the DoF map's pattern, its index arrays shared, each
filled by one scatter-add per block of at most CELL_BLOCK cells of a group
(the block of every stacked per-cell build), so that the stacked local
matrices do not grow with the group; B is laid out row by row, and its
constant-pressure rows are the cell-face flux incidence that the reduced
embedding and the compatibility check read.

The viscous block is assembled at nu = 1 (A1, with A = nu A1), since both
stabilization recipes are linear in nu.  The assembled system also carries
what the solver needs for the reduced pair it solves on: the embedding E of
the velocities without divergence moments and its columns E_f of the free
ones, the cell volumes and pressure-monomial integrals for the pressure
recovery, and a nested-dissection order of the reduced saddle unknowns.
These, A1, B, the Dirichlet mask and the zero-mean row depend on neither nu
nor the case: the DoF map keeps them, read-only, from their first build,
with their key: the kernel `local_a` itself, the stabilization, the Neumann
faces, the mesh and the projection records.  The arrays of a mesh and of a
record are read-only from their construction, and a record's fields cannot
be rebound, so these objects fix all that the operators are made from; the
key is compared object by object, and since it holds them, no id is reused
while it is kept.  With the operators the map keeps one slot for the
solver of the nu-free Stokes matrix that they make, which `flow` fills on
the first solve, so the factor goes when a new key evicts them.  Each call
builds only the load, traction and boundary values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .dofspace import (
    DofMapQ,
    DofMapV,
    build_reduced_maps,
    cell_blocks,
    interpolate_boundary,
    nested_dissection,
)
from .meshing import PolyMesh, read_only
from .polynomials import dim_poly, multi_indices, product_positions
from .projection import CellProjections, FaceProjections, face_extraction


@dataclass
class ProblemSpec:
    """Data of one flow problem: viscosity, load, boundary conditions."""

    nu: float
    load: Callable                       # (n,3) points -> (n,3)
    dirichlet: Callable                  # (n,3) points -> (n,3) boundary velocity
    k: int
    # informational: nothing in the package reads it (`bench` and the
    # benchmark set it); the caller's choice of solve decides
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


def local_convection(projs: list[CellProjections], w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(w)[i,j] = c_h(w; phi_j, phi_i) and the Newton linearization's
    transposed slot Cg(w)[i,j] = c_h(phi_j; w, phi_i) of cells sharing one
    local layout, w of shape (nc, ndof); both (nc, ndof, ndof).

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
    M3 = np.stack([pr.mono_int for pr in projs])[:, product_positions(
        3 * k - 1, 3, *(multi_indices(n, 3) for n in (k, k - 1, k)))]
    Pw = np.einsum("cbln,cn->cbl", P, w)
    Gw = np.einsum("cakn,cn->cak", G, w)
    # C: sum over (b, n) of G[a,b,n,j] against MW[m,n,b] = sum_l M3[m,n,l] Pw[b,l],
    # a batched product, whose sums do not depend on the number of cells stacked
    MW = (M3.reshape(nc, pk * pq, pk) @ Pw.transpose(0, 2, 1)).reshape(nc, pk, pq, 3)
    Y = MW.transpose(0, 1, 3, 2).reshape(nc, 1, pk, 3 * pq) @ G     # (nc, 3, pk, nd)
    # Cg: sum over (b, l) of Z[a,m,b,l] P[b,l,j], Z = sum_n Gw[a,b,n] M3[m,n,l]
    Z = np.einsum("cabn,cmnl->cambl", Gw.reshape(nc, 3, 3, pq), M3)
    Yg = Z.reshape(nc, 3 * pk, 3 * pk) @ P.reshape(nc, 3 * pk, nd)
    Pt = P.reshape(nc, 3 * pk, nd).transpose(0, 2, 1)
    return Pt @ Y.reshape(nc, 3 * pk, nd), Pt @ Yg


def local_load(proj: CellProjections, load: Callable) -> np.ndarray:
    """(f_h, v)_P = moments(v) . Hk^-1 (f, m)_P, which is pi_0k(v) . (f, m)_P
    since Hk is symmetric and pi_0k = Hk^-1 moments per component."""
    fvals = np.asarray(load(proj.rule.points), dtype=float).reshape(-1, 3)
    return proj.pi_0k.T @ np.concatenate([proj.rule_vals.T @ (proj.rule.weights * fvals[:, c])
                                          for c in range(3)])


@dataclass
class GlobalSystem:
    """Assembled saddle-point operator and right-hand side, with what the
    solver needs to solve it on the reduced pair and map the result back."""

    A1: sp.csc_matrix                # velocity block at nu = 1 (viscous + stabilization), map's pattern
    nu: float                        # viscosity: the velocity block is nu A1
    B: sp.csr_matrix                 # div pairing, (ndof_q, ndof_v)
    F: np.ndarray                    # velocity right-hand side
    e: np.ndarray | None             # pressure-integral vector (None: no mean row)
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray
    keep: np.ndarray                 # velocity DoFs of the reduced pair: all but the divergence moments
    E: sp.csr_matrix                 # reduced -> full velocity embedding, (ndof_v, keep.sum())
    Ef: sp.csr_matrix                # E's columns of the free (non-Dirichlet) reduced velocities
    volumes: np.ndarray              # |P| per cell
    pressure_ints: np.ndarray        # (n_cells, pi_{k-1,3}) integrals of the pressure monomials
    order: np.ndarray                # LU order of the reduced saddle unknowns
    stokes_factor: list              # [K1's solver] once built, shared by the systems of its operators

    @property
    def A(self) -> sp.csc_matrix:
        """The velocity block nu A1, on A1's index arrays."""
        return sp.csc_matrix((self.nu * self.A1.data, self.A1.indices, self.A1.indptr), shape=self.A1.shape)

    @property
    def ndof_q(self) -> int:
        return self.B.shape[0]


def classify_neumann(mesh: PolyMesh, spec: ProblemSpec) -> np.ndarray:
    """The boundary faces that spec.neumann_faces(centroid, outward normal) takes, ascending."""
    bf = np.flatnonzero(mesh.boundary_face)
    if spec.neumann_faces is None:
        return bf[:0]
    normal = mesh.face_cell_signs[bf, 0, None] * mesh.face_stack.normal[bf]
    return bf[[bool(spec.neumann_faces(c, n)) for c, n in zip(mesh.face_stack.centroid[bf], normal)]]


def _check_compatibility(mesh: PolyMesh, flux: sp.csr_matrix, gvals: np.ndarray) -> None:
    """Full-Dirichlet data must satisfy the flux compatibility
    |integral of g.n over the boundary| <= 1e-10 * |boundary|; `flux` holds
    the cells' boundary-flux rows, so their sum is the boundary flux."""
    total = float(np.sum(flux @ gvals))
    if abs(total) > 1e-10 * max(1.0, mesh.face_stack.area[mesh.boundary_face].sum()):
        raise ValueError(
            f"incompatible Dirichlet data: boundary flux {total:.3e} is not zero"
        )


def _on_pattern(mapv: DofMapV, data: np.ndarray) -> sp.csc_matrix:
    """The CSC matrix with `data` on the DoF map's pattern."""
    return sp.csc_matrix((data, mapv.indices, mapv.indptr), shape=(mapv.ndof, mapv.ndof))


def _cell_matrices(mapv: DofMapV, local: Callable) -> list[sp.csc_matrix]:
    """Sum cell blocks into CSC matrices on the DoF map's pattern: for each
    block b of `cell_blocks` of each group g, `local(g, b)` gives one stack
    (nb, ndof, ndof) per matrix for the cells g.cells[b], and each stack
    goes into its matrix's data array by one scatter-add, so the sums run in
    the order of an unblocked scatter, cell by cell.  `np.add.at` reads the
    int32 slots in place, where `np.bincount` would copy them to int64."""
    data = []
    for g in mapv.groups:
        for b in cell_blocks(len(g.cells)):
            stacks = local(g, b)
            data = data or [np.zeros(len(mapv.indices)) for _ in stacks]
            for d, stack in zip(data, stacks):
                np.add.at(d, g.slots[b].ravel(), stack.ravel())
    return [_on_pattern(mapv, d) for d in data]


def divergence_matrix(mesh: PolyMesh, mapv: DofMapV) -> sp.csr_matrix:
    """Global divergence pairing B[c pq + b, :] v = int_{P_c} div v m_b,
    (ndof_q, ndof_v), without boundary conditions, in closed form from the
    DoFs and laid out row by row.  Row c pq is the boundary flux of cell c:
    sign |f| on the constant normal moment of each of its faces, ascending.
    Row c pq + b (b >= 1) is |P_c| on the cell's b-th divergence moment."""
    nc, n5 = mesh.n_cells, mapv.n_d5
    fc, slot = np.nonzero(mesh.face_cells >= 0)
    by_cell = np.argsort(mesh.face_cells[fc, slot], kind="stable")     # faces stay ascending
    fc, slot = fc[by_cell], slot[by_cell]
    row_len = np.ones((nc, 1 + n5), dtype=int)
    row_len[:, 0] = np.bincount(mesh.face_cells[fc, slot], minlength=nc)
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    is_flux = np.ones(indptr[-1], dtype=bool)
    is_flux[indptr[:-1].reshape(nc, 1 + n5)[:, 1:]] = False
    indices = np.empty(indptr[-1], dtype=int)
    data = np.empty(indptr[-1])
    indices[is_flux] = mapv.offsets["face"] + 3 * mapv.n_face_moms * fc
    data[is_flux] = mesh.face_cell_signs[fc, slot] * mesh.face_stack.area[fc]
    # the cell blocks close the numbering: family 4, then family 5, per cell
    indices[~is_flux] = (mapv.offsets["cell"] + mapv.n_d4 + (mapv.n_d4 + n5) * np.arange(nc)[:, None]
                      + np.arange(n5)).ravel()
    data[~is_flux] = np.repeat(mesh.cell_stack.volume, n5)
    return sp.csr_matrix((data, indices, indptr), shape=(nc * (1 + n5), mapv.ndof))


def reduced_embedding(B: sp.csr_matrix, keep: np.ndarray, pressure_ints: np.ndarray,
                      volumes: np.ndarray) -> sp.csr_matrix:
    """Sparse embedding E of the reduced velocity DoFs `keep` (families 1-4)
    into the full ones, (ndof_v, keep.sum()).  E is the identity on the kept
    DoFs.  On the reduced space div v is the constant boundary flux over the
    volume, which fixes the divergence moments: D5_b(v) = (int m_b / vol^2)
    flux(v), with flux(v) the cell's row of B against the constant pressure."""
    nc, pq = pressure_ints.shape
    flux = B[::pq][:, keep]
    # the dropped DoFs are the divergence moments, cell by cell
    mono = pressure_ints[:, 1:] / volumes[:, None] ** 2
    per_cell = sp.csr_matrix((mono.ravel(), np.arange(mono.size) // (pq - 1),
                              np.concatenate([[0], np.cumsum(~keep)])), shape=(len(keep), nc))
    return (sp.identity(len(keep), format="csr")[:, keep] + per_cell @ flux).tocsr()


def _saddle_order(mesh: PolyMesh, mapv: DofMapV, free: np.ndarray, mean_row: bool) -> np.ndarray:
    """LU order of the reduced saddle unknowns (the velocity DoFs in `free`,
    one pressure per cell, the zero-mean multiplier when `mean_row`): the
    velocities in nested-dissection order, each pressure right after the
    last velocity of its cell, so that its zero diagonal is eliminated after
    all its couplings, and the multiplier last."""
    nf = int(np.count_nonzero(free))
    unknown = np.full(mapv.ndof, -1)
    unknown[free] = np.arange(nf)
    cells = np.concatenate([np.repeat(g.cells, g.layout.ndof) for g in mapv.groups])
    vel = unknown[np.concatenate([g.dofs.ravel() for g in mapv.groups])]
    cells, vel = cells[vel >= 0], vel[vel >= 0]
    key = nested_dissection(mesh.cell_stack.barycenter, cells, vel, nf)
    pkey = np.full(mesh.n_cells, -1)
    np.maximum.at(pkey, cells, key[vel])
    order = np.lexsort((np.repeat([0, 1], [nf, mesh.n_cells]), np.concatenate([key, pkey])))
    return np.append(order, nf + mesh.n_cells) if mean_row else order


def _operators(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], stabilization: str,
               projs: list[CellProjections], neumann: np.ndarray) -> dict:
    """The fields of the system that depend on neither nu nor the load case,
    their arrays read-only, since the DoF map shares them between systems,
    and the empty slot of their Stokes factor."""
    mapv, mapq = maps
    pq = mapq.n_per_cell
    # each local matrix is written into its block's stack as it is made
    [A1] = _cell_matrices(mapv, lambda g, b: [np.fromiter(
        (local_a(projs[c], 1.0, stabilization) for c in g.cells[b]),
        np.dtype((float, g.slots.shape[1:])), len(g.cells[b]))])
    B = divergence_matrix(mesh, mapv)
    e = np.concatenate([proj.mono_int[:pq] for proj in projs])
    # Dirichlet DoFs: those of the vertices, edges and faces of the boundary
    # faces that are not Neumann, so a vertex or an edge stays Dirichlet
    # unless all its boundary faces are Neumann; entity flags expand to DoFs
    dfaces = np.setdiff1d(np.flatnonzero(mesh.boundary_face), neumann)
    verts, edges = mesh.face_closure(dfaces)
    on = np.zeros(len(mapv.entity_size), dtype=bool)
    on[np.concatenate([verts, mesh.n_vertices + edges, mesh.n_vertices + mesh.n_edges + dfaces])] = True
    dir_mask = np.repeat(on, mapv.entity_size)
    mean_row = len(neumann) == 0
    keep = build_reduced_maps(mapv)
    pressure_ints = e.reshape(mesh.n_cells, pq)
    E = reduced_embedding(B, keep, pressure_ints, mesh.cell_stack.volume)
    Ef = E[:, np.flatnonzero(~dir_mask[keep])]
    order = _saddle_order(mesh, mapv, keep & ~dir_mask, mean_row=mean_row)
    read_only(A1.data, B.data, B.indices, B.indptr, E.data, E.indices, E.indptr, Ef.data, Ef.indices,
              Ef.indptr, e, pressure_ints, dir_mask, keep, order)
    return dict(A1=A1, B=B, e=e if mean_row else None, dirichlet_mask=dir_mask, keep=keep, E=E, Ef=Ef,
                volumes=mesh.cell_stack.volume, pressure_ints=pressure_ints, order=order, stokes_factor=[])


def assemble(mesh: PolyMesh, maps: tuple[DofMapV, DofMapQ], spec: ProblemSpec,
             projs: list[CellProjections],
             faceprojs: dict[int, FaceProjections]) -> GlobalSystem:
    """Scatter-add the local contributions into the sparse saddle system.

    The viscosity must be finite and positive: the solver's unknowns divide
    the pressure by it.  The spec's degree must be the DoF map's."""
    if not (np.isfinite(spec.nu) and spec.nu > 0):
        raise ValueError(f"viscosity must be finite and > 0, got nu = {spec.nu}")
    mapv, mapq = maps
    if spec.k != mapv.k:
        raise ValueError(f"the problem is posed at k = {spec.k} but the DoF map has k = {mapv.k}")
    neumann = classify_neumann(mesh, spec)
    # every input of `_operators` besides the map (see the module notes)
    key = (local_a, spec.stabilization, tuple(neumann.tolist()), mesh, *projs)
    if mapv.operators is None or mapv.operators[0] != key:
        mapv.operators = None                 # the old operators and their factor go first
        mapv.operators = key, _operators(mesh, maps, spec.stabilization, projs, neumann)
    ops = mapv.operators[1]
    F = np.bincount(np.concatenate(mapv.cell_global),
                    np.concatenate([local_load(proj, spec.load) for proj in projs]), minlength=mapv.ndof)
    for f in neumann:
        ci = int(mesh.face_cells[f, 0])
        sign = int(mesh.face_cell_signs[f, 0])
        fi_loc = int(np.nonzero(mesh.cells[ci][0] == f)[0][0])
        fp = faceprojs[f]
        tvals = np.asarray(spec.traction(fp.pts3, sign * mesh.face_stack.normal[f]),
                           dtype=float).reshape(-1, 3)
        gdof = mapv.cell_global[ci]
        FT = fp.vals @ face_extraction(mesh, mapv, ci, fi_loc, fp)
        for c in range(3):
            F[gdof] += FT[c].T @ (fp.w * tvals[:, c])

    gvals = interpolate_boundary(mesh, mapv, spec.dirichlet)
    gvals[~ops["dirichlet_mask"]] = 0.0
    if ops["e"] is not None:
        _check_compatibility(mesh, ops["B"][::mapq.n_per_cell], gvals)
    return GlobalSystem(nu=spec.nu, F=F, dirichlet_values=gvals, **ops)


def assemble_convection(mapv: DofMapV, projs: list[CellProjections],
                        u: np.ndarray) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """Global C(u) and the gradient-slot matrix Cg(u) at the state u, both CSC
    on the DoF map's pattern: one batched contraction per block of cells of
    a group (see `_cell_matrices`), so the stacked temporaries do not grow
    with the group."""
    C, Cg = _cell_matrices(mapv, lambda g, b: local_convection([projs[c] for c in g.cells[b]], u[g.dofs[b]]))
    return C, Cg


def dump_matrix(system: GlobalSystem, path: str) -> None:
    """Write the assembled blocks in (row, col, value) coordinate text form,
    row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# block A (velocity), B (divergence pairing)\n")
        for name, M in (("A", system.A), ("B", system.B)):
            coo = M.tocsr().tocoo()
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{name} {r} {c} {v:.17e}\n")
