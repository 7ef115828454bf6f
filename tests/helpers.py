"""Shared oracles and field builders for the test suite.

The integral oracles here are independent of the projector/quadrature code
paths they are used to check: closed-form monomial integrals on the unit
cube and unit tetrahedron, and direct pointwise evaluation of analytic
fields for form values.  The H1-seminorm projections, which the scheme does
not use (it takes the DoF-euclidean one), live here as reproduction oracles,
next to the simple reference versions of the package's fast paths and the
full-system Stokes and Newton solves that the reduced-pair production solve
is checked against.  The per-entity loops that the batched geometry, face
rule, face projection, cell projection, boundary interpolation and
case-field kernels replaced are kept here as their oracles, with the helpers
that only tests call.  So are the per-cell DoF-map loop, the COO scatter of
cell blocks and the equilibration through CSR/CSC conversions that the DoF
map's CSC pattern replaced, with the per-face and per-cell loops of the
Dirichlet mask, the Neumann classification, the reduced maps and the
reduced embedding.  The divergence pairing has two oracles: the pairing
through the cell projections (`local_b`, Hq times the reconstructed
divergence), which the closed form reproduces to round-off, and the
closed form cell by cell from the per-cell records.  The dense SVD of B,
with its DoF cap and singular-value gap, is the oracle of the rank that
`derham` certifies from the structure of B.  The face-by-face and
cell-by-cell loops of the mesh topology and its checks, the tet-by-tet
tetra-list dedupe, the point-by-point tetra generator and the cell-by-cell
quality report are the oracles of the flat construction in `meshing`.
The multi-index tables built by loops over the multi-indices through a dict
of positions, and the reference rules built point by point, are the
oracles of the array expressions in `polynomials`, `projection`, `forms`
and `quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve, solve_triangular

import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

from vemflow import cases
from vemflow import quadrature as quad
from vemflow.dofspace import (
    CellDofLayout,
    _as_field,
    build_dof_maps,
    cell_basis,
    edge_point_params,
    interpolate_boundary,
)
from vemflow.flow import DIVERGENCE_GROWTH, NEWTON_MAX_ITER, FlowSolution, NSOptions, SolverError, solve_stokes
from vemflow.forms import GlobalSystem, assemble, assemble_convection, divergence_matrix, local_a, local_load
from vemflow.meshing import CellGeom, FaceGeom, MeshError, PolyMesh, QualityReport
from vemflow.polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    cross_coefficients,
    cross_dimension,
    decomp_basis,
    dim_poly,
    multi_indices,
    product_positions,
)
from vemflow.projection import (
    CellProjections,
    FaceProjections,
    cell_integral_degree,
    cell_rule_exactness,
    face_extraction,
)


def cube_monomial_integral(a: int, b: int, c: int) -> float:
    """Closed form: integral of x^a y^b z^c over [0,1]^3."""
    return 1.0 / ((a + 1) * (b + 1) * (c + 1))


def tet_monomial_integral(a: int, b: int, c: int) -> float:
    """Closed form on the unit simplex: a! b! c! / (a+b+c+3)!."""
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def square_monomial_integral(a: int, b: int) -> float:
    return 1.0 / ((a + 1) * (b + 1))


def triangle_monomial_integral(a: int, b: int) -> float:
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def poly_field(basis, coef: np.ndarray):
    """Vector polynomial field from a full (3 * n_scalar) coefficient vector
    over the monomials of `basis`.

    Returns (u, grad_u, div_u) callables on (n, 3) points."""
    ns = basis.n
    coef = np.asarray(coef, dtype=float)

    def u(pts):
        ph = basis.eval(pts)
        return np.stack([ph @ coef[c * ns: (c + 1) * ns] for c in range(3)], axis=1)

    def grad_u(pts):
        g = basis.eval_grad(pts)
        out = np.empty((len(np.atleast_2d(pts)), 3, 3))
        for i in range(3):
            for j in range(3):
                out[:, i, j] = g[:, :, j] @ coef[i * ns: (i + 1) * ns]
        return out

    def div_u(pts):
        g = basis.eval_grad(pts)
        return sum(g[:, :, c] @ coef[c * ns: (c + 1) * ns] for c in range(3))

    return u, grad_u, div_u


def zero_divergence(pts) -> np.ndarray:
    """The divergence of every manufactured velocity, which `cases` checks
    symbolically to be zero: (n,) zeros for (n, 3) points."""
    return np.zeros(len(np.atleast_2d(pts)))


def random_poly_field(basis, rng, degree: int | None = None):
    """Random vector polynomial of the requested degree on the cell of `basis`."""
    ns = basis.n
    coef = np.zeros(3 * ns)
    keep = dim_poly(basis.degree if degree is None else degree, 3)
    for c in range(3):
        coef[c * ns: c * ns + keep] = rng.standard_normal(keep)
    return coef, poly_field(basis, coef)


def strain_form_oracle(grad_u, grad_v, rule, nu=1.0) -> float:
    """nu * integral of eps(u):eps(v) from analytic gradients by quadrature."""
    gu = grad_u(rule.points)
    gv = grad_v(rule.points)
    eu = 0.5 * (gu + np.transpose(gu, (0, 2, 1)))
    ev = 0.5 * (gv + np.transpose(gv, (0, 2, 1)))
    return nu * float(rule.weights @ np.einsum("qij,qij->q", eu, ev))


def convective_form_oracle(w, grad_u, v, rule) -> float:
    """integral of [(grad u) w] . v from analytic fields by quadrature."""
    gu = grad_u(rule.points)
    wv = w(rule.points)
    vv = v(rule.points)
    return float(rule.weights @ np.einsum("qij,qj,qi->q", gu, wv, vv))


def local_dofs(mapv, ci: int, global_vec: np.ndarray) -> np.ndarray:
    return global_vec[mapv.cell_global[ci]]


def face_poly_dofs(mesh, mapv, f, coef: np.ndarray) -> np.ndarray:
    """Scalar face DoF vector sampled from the 2D polynomial with the given
    coefficients over the degree k face basis of face f."""
    k = mapv.k
    npk = dim_poly(k, 2)
    nm = dim_poly(k - 2, 2)
    loop = mesh.faces[f]
    nv = len(loop)
    basis = face_basis(mesh, f, k + 1)
    d = np.zeros(nv * k + nm)
    d[:nv] = basis.eval(face_coords(mesh, f, mesh.vertices[loop]))[:, :npk] @ coef
    eids, _ = mesh.face_edges[f]
    for le in range(nv):
        ep2 = face_coords(mesh, f, mapv.edge_points[eids[le]])
        d[nv + le * (k - 1): nv + (le + 1) * (k - 1)] = basis.eval(ep2)[:, :npk] @ coef
    pts2, _, w = face_quadrature_loop(mesh, f, 2 * k + 2)
    phi = basis.eval(pts2)
    vals = phi[:, :npk] @ coef
    d[nv * k:] = (phi[:, :nm] * (w * vals)[:, None]).sum(axis=0) / face_row(mesh, f).area
    return d


def _projected_values(mesh, ci: int, proj):
    """Evaluate the projected basis fields of cell ci at its quadrature points.

    Returns (P, G): P is (nq, ndof, 3) values of Pi^0_k of each basis
    function, G is (nq, ndof, 3, 3) values of the projected gradients."""
    pk = dim_poly(proj.k, 3)
    pq = proj.Hq.shape[0]
    phi = cell_basis(mesh, ci, proj.k + 1).eval(proj.rule.points)
    phik = phi[:, :pk]
    phiq = phi[:, :pq]
    nq = phik.shape[0]
    P = np.empty((nq, proj.ndof, 3))
    for c in range(3):
        P[:, :, c] = phik @ proj.pi_0k[c * pk: (c + 1) * pk, :]
    G = np.empty((nq, proj.ndof, 3, 3))
    for i in range(3):
        for j in range(3):
            G[:, :, i, j] = phiq @ proj.pi_0grad[(3 * i + j) * pq: (3 * i + j + 1) * pq, :]
    return P, G


def convection_oracle(mesh, ci: int, proj, w_loc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(w) and Cg(w) of cell ci by its quadrature rule, evaluating the
    projected fields pointwise: the reference for the quadrature-free kernel."""
    P, G = _projected_values(mesh, ci, proj)
    wq = proj.rule.weights
    Pw = np.einsum("qjc,j->qc", P, w_loc)
    Gw = np.einsum("qjab,j->qab", G, w_loc)
    T = np.einsum("qjab,qb->qja", G, Pw)       # (grad u_j) w  at points
    U = np.einsum("qab,qjb->qja", Gw, P)       # (grad w) u_j  at points
    PW = P * wq[:, None, None]
    C = np.einsum("qia,qja->ij", PW, T, optimize=True)
    Cg = np.einsum("qia,qja->ij", PW, U, optimize=True)
    return C, Cg


def convection_oracle_scatter(mesh, mapv, projs, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense global C(u), Cg(u) scattered cell by cell from the oracle."""
    C = np.zeros((mapv.ndof, mapv.ndof))
    Cg = np.zeros((mapv.ndof, mapv.ndof))
    for ci, proj in enumerate(projs):
        gdof = mapv.cell_global[ci]
        Cl, Cgl = convection_oracle(mesh, ci, proj, u[gdof])
        C[np.ix_(gdof, gdof)] += Cl
        Cg[np.ix_(gdof, gdof)] += Cgl
    return C, Cg


def cell_mass(proj) -> np.ndarray:
    """Hk, the mass matrix of a cell's degree k basis, gathered from its
    monomial integrals as the cell kernel gathers it (Hq is its leading
    block)."""
    a_k = multi_indices(proj.k, 3)
    return proj.mono_int[..., product_positions(cell_integral_degree(proj.k), 3, a_k, a_k)]


def cell_moments(proj) -> np.ndarray:
    """(3 pi_{k,3}, ndof) interior moments of a cell, Hk pi_0k per component."""
    pk = dim_poly(proj.k, 3)
    return (cell_mass(proj) @ proj.pi_0k.reshape(3, pk, -1)).reshape(3 * pk, -1)


def local_load_loop(proj, load) -> np.ndarray:
    """(f_h, v)_P with one Hk solve per load component: the reference for the
    solve-free contraction with pi_0k in `forms.local_load`."""
    pk = dim_poly(proj.k, 3)
    phi = proj.rule_vals
    fvals = np.asarray(load(proj.rule.points), dtype=float).reshape(-1, 3)
    rhs = np.zeros(proj.ndof)
    Hk = cell_mass(proj)
    for c in range(3):
        cf = np.linalg.solve(Hk, phi.T @ (proj.rule.weights * fvals[:, c]))
        rhs += cell_moments(proj)[c * pk: (c + 1) * pk, :].T @ cf
    return rhs


def mass_from_integrals_loop(ints: np.ndarray, lookup: dict, rows, cols) -> np.ndarray:
    """Gram matrix [int m_a m_b] by a loop over the multi-index pairs: the
    reference for the gathers at `polynomials.product_positions`."""
    H = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            H[i, j] = ints[lookup[tuple(x + y for x, y in zip(a, b))]]
    return H


# ---------------------------------------------------------------------------
# Multi-index tables by loops over the multi-indices through a dict of
# positions: the references for the array expressions of `polynomials`,
# `polynomials.product_positions` and the reference rule
# of `quadrature`, which must match them bit for bit.
# ---------------------------------------------------------------------------


def _fixed_degree(total: int, d: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _fixed_degree(total - first, d - 1):
            out.append((first,) + rest)
    return out


def multi_indices_loop(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Graded-lexicographic multi-indices by recursion on the first exponent."""
    out: list[tuple[int, ...]] = []
    for total in range(n + 1):
        out.extend(_fixed_degree(total, d))
    return tuple(out)


def _index_lookup(n: int, d: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices_loop(n, d))}


def derivative_matrices_loop(n: int, d: int) -> tuple[np.ndarray, ...]:
    alphas = multi_indices_loop(n, d)
    lookup = _index_lookup(n, d)
    nm = len(alphas)
    mats = []
    for j in range(d):
        D = np.zeros((nm, nm))
        for src, a in enumerate(alphas):
            if a[j] == 0:
                continue
            tgt = list(a)
            tgt[j] -= 1
            D[lookup[tuple(tgt)], src] = a[j]
        mats.append(D)
    return tuple(mats)


def cross_field_descriptors_loop(n: int) -> list[tuple[int, tuple[int, int, int]]]:
    if n <= 0:
        return []
    out = []
    for a in multi_indices_loop(n - 1, 3):
        out.append((0, a))
        out.append((1, a))
        if a[2] == 0:
            out.append((2, a))
    return out


def cross_coefficients_loop(n: int, target_degree: int) -> np.ndarray:
    descr = cross_field_descriptors_loop(n)
    lookup = _index_lookup(target_degree, 3)
    ns = dim_poly(target_degree, 3)
    C = np.zeros((3 * ns, len(descr)))

    def put(col, comp, alpha, val):
        C[comp * ns + lookup[tuple(alpha)], col] = val

    for col, (i, a) in enumerate(descr):
        a = np.array(a)
        if i == 0:     # xhat /\ (m e_x) = (0, m*zhat, -m*yhat)
            put(col, 1, a + (0, 0, 1), 1.0)
            put(col, 2, a + (0, 1, 0), -1.0)
        elif i == 1:   # xhat /\ (m e_y) = (-m*zhat, 0, m*xhat)
            put(col, 0, a + (0, 0, 1), -1.0)
            put(col, 2, a + (1, 0, 0), 1.0)
        else:          # xhat /\ (m e_z) = (m*yhat, -m*xhat, 0)
            put(col, 0, a + (0, 1, 0), 1.0)
            put(col, 1, a + (1, 0, 0), -1.0)
    return C


def gradient_coefficients_loop(k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    lookup = _index_lookup(k, 3)
    ns = dim_poly(k, 3)
    cols = []
    sources = []
    for s in multi_indices_loop(k + 1, 3):
        if sum(s) == 0:
            continue
        col = np.zeros(3 * ns)
        for j in range(3):
            if s[j] == 0:
                continue
            tgt = list(s)
            tgt[j] -= 1
            col[j * ns + lookup[tuple(tgt)]] = s[j]
        cols.append(col)
        sources.append(s)
    return np.array(cols).T, sources


def decomp_basis_loop(k: int) -> SimpleNamespace:
    """T from the gradient columns and the cross columns picked by degree,
    with Tinv_T, the block sizes and the gradient sources."""
    G, sources = gradient_coefficients_loop(k)
    all_cross = cross_field_descriptors_loop(k)
    low = [(i, a) for (i, a) in all_cross if sum(a) <= k - 3]
    high = [(i, a) for (i, a) in all_cross if k - 2 <= sum(a) <= k - 1]
    Call = cross_coefficients_loop(k, k)
    ncols = {d: c for c, d in enumerate(all_cross)}
    Clow = Call[:, [ncols[d] for d in low]] if low else np.zeros((Call.shape[0], 0))
    Chigh = Call[:, [ncols[d] for d in high]]
    T = np.hstack([G, Clow, Chigh])
    return SimpleNamespace(T=T, Tinv_T=np.linalg.inv(T.T), n_grad=G.shape[1], n_cross_low=Clow.shape[1],
                           n_cross_high=Chigh.shape[1], grad_sources=tuple(sources))


def mass_index_loop(degree: int, dim: int, rows, cols) -> np.ndarray:
    lookup = _index_lookup(degree, dim)
    return np.array([[lookup[tuple(x + y for x, y in zip(a, b))] for b in cols] for a in rows])


def triple_index_loop(k: int) -> np.ndarray:
    lookup = _index_lookup(3 * k - 1, 3)
    a_k = multi_indices_loop(k, 3)
    a_q = multi_indices_loop(k - 1, 3)
    table = np.empty((len(a_k), len(a_q), len(a_k)), dtype=int)
    for i, a in enumerate(a_k):
        for j, b in enumerate(a_q):
            for l, c in enumerate(a_k):
                table[i, j, l] = lookup[tuple(x + y + z for x, y, z in zip(a, b, c))]
    return table


def reference_tet_rule_loop(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    n = max(1, (exactness + 2) // 2)
    x1, w1 = quad._jacobi_01(n, 2)
    x2, w2 = quad._jacobi_01(n, 1)
    x3, w3 = quad._gauss_01(n)
    pts = []
    wts = []
    for a, wa in zip(x1, w1):
        for b, wb in zip(x2, w2):
            for c, wc in zip(x3, w3):
                pts.append((a, b * (1 - a), c * (1 - a) * (1 - b)))
                wts.append(wa * wb * wc)
    return np.array(pts), np.array(wts)


def reference_triangle_rule_loop(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    n = max(1, (exactness + 2) // 2)
    x1, w1 = quad._jacobi_01(n, 1)
    x2, w2 = quad._gauss_01(n)
    pts = []
    wts = []
    for a, wa in zip(x1, w1):
        for b, wb in zip(x2, w2):
            pts.append((a, b * (1 - a)))
            wts.append(wa * wb)
    return np.array(pts), np.array(wts)


def _lagrange_values(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on `nodes` at `pts` -> (npts, nnodes)."""
    n = len(nodes)
    out = np.ones((len(pts), n))
    for j in range(n):
        for m in range(n):
            if m != j:
                out[:, j] *= (pts - nodes[m]) / (nodes[j] - nodes[m])
    return out


def face_h1_projection(mesh, f: int, k: int, edge_points3) -> np.ndarray:
    """H1-seminorm projection onto P_k(f) of the scalar face DoF vector, by
    the in-plane Green identity with the boundary mean as fixing condition.
    Shape (pi_{k,2}, ndof)."""
    g = face_row(mesh, f)
    loop = mesh.faces[f]
    nv = len(loop)
    n_mom = dim_poly(k - 2, 2)
    ndof = nv * k + n_mom
    basis = face_basis(mesh, f, k + 1)
    npk = dim_poly(k, 2)
    pts2, _, w = face_quadrature_loop(mesh, f, 2 * k + 2)
    ints = face_basis(mesh, f, 2 * (k + 1)).eval(pts2).T @ w
    a_k = multi_indices(k, 2)
    Hk = mass_from_integrals_loop(ints, _index_lookup(2 * (k + 1), 2), a_k, a_k)
    verts2 = face_coords(mesh, f, mesh.vertices[loop])
    pos_in_loop = {int(loop[i]): i for i in range(nv)}
    eids, _ = mesh.face_edges[f]

    Dx, Dy = basis.deriv_matrices()
    Dxk, Dyk = Dx[:npk, :npk], Dy[:npk, :npk]
    G = (Dxk.T @ Hk @ Dxk + Dyk.T @ Hk @ Dyk) / g.h**2
    B = np.zeros((npk, ndof))
    lap = (Dxk @ Dxk + Dyk @ Dyk) / g.h**2      # column a: coefficients of laplace(m_a)
    B[:, nv * k:] -= g.area * lap[:n_mom, :].T

    tnodes = np.concatenate([[0.0], np.array(edge_point_params(k)), [1.0]])
    perimeter = sum(np.linalg.norm(np.diff(mesh.vertices[mesh.edges[e]], axis=0)) for e in eids)
    P0_m = np.zeros(npk)     # boundary integrals of the monomials
    P0_dof = np.zeros(ndof)  # boundary integral functional on the DoFs
    for le in range(nv):
        a_id, b_id = int(loop[le]), int(loop[(le + 1) % nv])
        vmin, vmax = min(a_id, b_id), max(a_id, b_id)
        cols = [pos_in_loop[vmin]] \
            + list(range(nv + le * (k - 1), nv + (le + 1) * (k - 1))) \
            + [pos_in_loop[vmax]]
        va2, vb2 = verts2[pos_in_loop[vmin]], verts2[pos_in_loop[vmax]]
        erule = edge_quadrature(va2, vb2, 2 * k + 2)
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
    B[0, :] = P0_dof / perimeter
    return solve(G, B)


def cell_h1_projection(mesh, mapv, ci: int, proj, faceprojs) -> np.ndarray:
    """H1-seminorm projection onto [P_k]^3 of the local DoF vector of cell
    ci, from the interior moments and the projected face traces, with the
    boundary mean of each component as fixing condition.  Shape
    (3 pi_{k,3}, ndof)."""
    k = mapv.k
    lay = mapv.layouts[ci]
    h, ndof, Hk, moments = proj.h, proj.ndof, cell_mass(proj), cell_moments(proj)
    basis = cell_basis(mesh, ci, k + 1)
    pk = dim_poly(k, 3)
    fids, signs = mesh.cells[ci]
    Dm = basis.deriv_matrices()
    Dk = [Dm[j][:pk, :pk] for j in range(3)]
    phi3f, gphi3f, FT = [], [], []
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        phi3f.append(basis.eval(fp.pts3))
        gphi3f.append(basis.eval_grad(fp.pts3)[:, :pk, :])
        FT.append([fp.vals @ (fp.l2 @ face_extraction_loop(mesh, mapv, ci, fi_loc, c)) for c in range(3)])

    Gs = sum(Dk[d].T @ Hk @ Dk[d] for d in range(3)) / h**2
    lap = sum(Dk[d] @ Dk[d] for d in range(3)) / h**2
    area_tot = sum(mesh.face_stack.area[f] for f in fids)
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
            dn = gphi3f[fi_loc] @ mesh.face_stack.normal[f]
            Bnab[blk, :] += signs[fi_loc] * (dn * fp.w[:, None]).T @ FT[fi_loc][c]
        # boundary-mean fixing condition replaces the constant-monomial row
        Gnab[c * pk, :] = 0.0
        Gnab[c * pk, blk] = bdry_int / area_tot
        row = np.zeros(ndof)
        for fi_loc, f in enumerate(fids):
            g = face_row(mesh, f)
            for d, direction in enumerate((g.normal, g.tau1, g.tau2)):
                row[lay.face[fi_loc, d, 0]] += direction[c] * g.area
        Bnab[c * pk, :] = row / area_tot
    return solve(Gnab, Bnab)


def _solve_blocks_loop(factor, blocks: list[np.ndarray]) -> np.ndarray:
    """Solutions for several right-hand side blocks from one Cholesky factor
    in one call, stacked by rows in block order.  The result is C-ordered,
    as the stacked contractions of the convection kernel expect (LAPACK
    returns Fortran order, which would change their summation order)."""
    X = np.ascontiguousarray(cho_solve(factor, np.hstack(blocks)))
    return np.vstack(np.hsplit(X, len(blocks)))


@dataclass(frozen=True, eq=False)
class CellProjectionsLoop(CellProjections):
    """A cell's projections with what the group kernel forms but does not
    keep: the cell's id, the mass matrix Hk of the degree k basis, the DoF
    values D (ndof, 3 pi_{k,3}) of the vector monomials and their
    DoF-euclidean projection pi_d (3 pi_{k,3}, ndof)."""

    c: int
    Hk: np.ndarray
    D: np.ndarray
    pi_d: np.ndarray


def cell_projection_loop(mesh, mapv, ci: int, faceprojs) -> CellProjectionsLoop:
    """The projections of one cell, built alone with one basis evaluation and
    one face extraction per face: the reference for the group kernel
    `projection.build_cell_projection`."""
    k = mapv.k
    lay = mapv.layouts[ci]
    geom = cell_row(mesh, ci)
    h, vol = geom.h, geom.volume
    basis = cell_basis(mesh, ci, k + 1)
    pk = dim_poly(k, 3)
    pq = dim_poly(k - 1, 3)
    ndof = lay.ndof
    fids, signs = mesh.cells[ci]
    dec = decomp_basis(k)

    # the monomial integrals go to the highest degree read, on the rule of
    # the cell's exactness: the convective form contracts them as triple
    # products of degree 3k-1
    deg = cell_integral_degree(k)
    rule = quad.cell_quadrature(mesh, ci, cell_rule_exactness(k))
    phi_rule = MonomialBasis3(deg, geom.barycenter, h).eval(rule.points)
    ints = phi_rule.T @ rule.weights
    a_k = multi_indices(k, 3)
    a_q = multi_indices(k - 1, 3)
    a_k1 = multi_indices(k + 1, 3)
    Hk = ints[..., product_positions(deg, 3, a_k, a_k)]
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
        g = face_row(mesh, f)
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
        Hq_k1 = ints[..., product_positions(deg, 3, a_q, a_k1)]
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
        rhs[0, lay.face[fi_loc, 0, 0]] += signs[fi_loc] * mesh.face_stack.area[f]
    if mapv.n_d5:
        rhs[1:, lay.d5] = vol * np.eye(mapv.n_d5)
    div = _solve_blocks_loop(chol_q, [rhs])

    # --- projected traces at the face quadrature points ------------------------
    # FT[fi_loc][c]: (nq_f, ndof) values of the projected component-c trace
    FT = []
    FTn = []
    for fi_loc, f in enumerate(fids):
        fp = faceprojs[f]
        trace = fp.vals @ face_extraction(mesh, mapv, ci, fi_loc, fp)
        FT.append(trace)
        nrm = mesh.face_stack.normal[f]
        FTn.append(nrm[0] * trace[0] + nrm[1] * trace[1] + nrm[2] * trace[2])

    # --- interior moments via the adapted decomposition of [P_k]^3 -------------
    adapted = np.zeros((3 * pk, ndof))
    srcidx = [basis.index_of(s) for s in dec.grad_sources]
    Hgq = ints[..., product_positions(deg, 3, dec.grad_sources, a_q)]
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
    pi_0k = _solve_blocks_loop(chol_k, np.vsplit(moments, 3))

    # --- L2 projection of the gradient onto [P_{k-1}]^{3x3} ---------------------
    Dk = [Dm[j][:pk, :pk] for j in range(3)]
    vterms = []                     # row-block order (3i+j): (grad v)_ij
    for i in range(3):
        Mi = moments[i * pk: (i + 1) * pk, :]
        vterm = [-(Dk[j][:, :pq].T @ Mi) / h for j in range(3)]
        for fi_loc, f in enumerate(fids):
            fp = faceprojs[f]
            phiq_w = (phi3f[fi_loc][:, :pq] * fp.w[:, None]).T @ FT[fi_loc][i]
            nrm = mesh.face_stack.normal[f]
            for j in range(3):
                vterm[j] += signs[fi_loc] * nrm[j] * phiq_w
        vterms += vterm
    pi_0grad = _solve_blocks_loop(chol_q, vterms)

    # --- consistency part of the viscous form (symmetric-gradient pairing) ------
    cons = np.zeros((ndof, ndof))
    for i in range(3):
        for j in range(3):
            gij = pi_0grad[(3 * i + j) * pq: (3 * i + j + 1) * pq, :]
            gji = pi_0grad[(3 * j + i) * pq: (3 * j + i + 1) * pq, :]
            eij = 0.5 * (gij + gji)
            cons += eij.T @ Hq @ eij
    sigma = np.maximum(h, np.diag(cons))

    return CellProjectionsLoop(
        c=ci, k=k, ndof=ndof, h=h, vol=vol, rule=rule,
        mono_int=ints, Hq=Hq, Hk=Hk, div=div, D=D, pi_d=pi_d, pi_d_dof=D @ pi_d,
        pi_0k=pi_0k, pi_0grad=pi_0grad, consistency=cons,
        sigma=sigma, rule_vals=phi_rule[:, :pk].copy(),
    )


def face_extraction_loop(mesh, mapv, ci: int, fi_loc: int, comp: int) -> np.ndarray:
    """Matrix picking the scalar face DoFs of velocity component `comp` on
    local face fi_loc out of the cell-local DoF vector: the reference for
    the column gather in `projection.face_extraction`, which equals
    fp.l2 @ face_extraction_loop(...) for each component."""
    k = mapv.k
    lay = mapv.layouts[ci]
    f = mesh.cells[ci][0][fi_loc]
    g = face_row(mesh, f)
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


def saddle_matrix_oracle(system, C=None):
    """Eliminate Dirichlet DoFs and append the zero-mean row when present:
    the reference for `flow._saddle_matrix` and the Stokes right-hand side.

    Returns (K, rhs, free velocity index)."""
    mask = system.dirichlet_mask
    free = np.nonzero(~mask)[0]
    A = system.A if C is None else (system.A + C).tocsr()
    lift = system.dirichlet_values
    F = system.F - A @ lift
    G = -(system.B @ lift)
    A_ff = A[free][:, free]
    B_f = system.B[:, free]
    if system.e is not None:
        e = sp.csr_matrix(system.e[None, :])
        K = sp.bmat([
            [A_ff, B_f.T, None],
            [B_f, None, e.T],
            [None, e, None],
        ], format="csc")
        rhs = np.concatenate([F[free], G, [0.0]])
    else:
        K = sp.bmat([[A_ff, B_f.T], [B_f, None]], format="csc")
        rhs = np.concatenate([F[free], G])
    return K, rhs, free


def newton_step_oracle(system, C, Cg, u, p, lam):
    """Newton matrix and right-hand side at the state (u, p, lam) with
    C = C(u), Cg = Cg(u): the reference for one step of
    `flow.solve_navier_stokes`.  Returns (K, rhs)."""
    free = np.nonzero(~system.dirichlet_mask)[0]
    Rm = system.A @ u + C @ u + system.B.T @ p - system.F
    Rc = system.B @ u
    J = system.A + C + Cg
    J_ff = J[free][:, free]
    B_f = system.B[:, free]
    if system.e is not None:
        Rc = Rc + lam * system.e
        Re = np.array([system.e @ p])
        e = sp.csr_matrix(system.e[None, :])
        K = sp.bmat([[J_ff, B_f.T, None], [B_f, None, e.T], [None, e, None]], format="csc")
        rhs = -np.concatenate([Rm[free], Rc, Re])
    else:
        K = sp.bmat([[J_ff, B_f.T], [B_f, None]], format="csc")
        rhs = -np.concatenate([Rm[free], Rc])
    return K, rhs


def reduced_cell_embedding(mesh, mapv, projs, ci: int) -> np.ndarray:
    """Cell matrix mapping reduced local DoFs (families 1-4) to the full local
    vector: on the reduced space the divergence is the constant boundary flux
    over the volume, which determines the divergence moments."""
    lay = mapv.layouts[ci]
    proj = projs[ci]
    keep = np.ones(lay.ndof, dtype=bool)
    keep[lay.d5] = False
    E = np.zeros((lay.ndof, int(keep.sum())))
    E[np.nonzero(keep)[0], np.arange(int(keep.sum()))] = 1.0
    if mapv.n_d5:
        fids, signs = mesh.cells[ci]
        flux_row = np.zeros(lay.ndof)
        for fi_loc, f in enumerate(fids):
            flux_row[lay.face[fi_loc, 0, 0]] += signs[fi_loc] * mesh.face_stack.area[f]
        # D5_b(v) = (div v) * int m_b / vol^2 with div v = flux / vol
        mono = proj.mono_int[1: 1 + mapv.n_d5]
        E[lay.d5, :] = np.outer(mono / proj.vol**2, flux_row[np.nonzero(keep)[0]])
    return E


def reduced_system_oracle(mesh, maps, spec, projs, keep) -> GlobalSystem:
    """The reduced Stokes system on the velocity DoFs `keep` and one pressure
    per cell, assembled cell by cell from the embedded local matrices, with
    full Dirichlet conditions and the mean row: the reference for the
    restriction in `flow.solve_stokes_reduced` (Dirichlet data only; it
    ignores Neumann faces)."""
    mapv, mapq = maps
    to_red = np.cumsum(keep) - 1                 # reduced number of each kept DoF
    nv, nc = int(keep.sum()), mesh.n_cells
    rows_a, cols_a, vals_a = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    F = np.zeros(nv)
    e = np.zeros(nc)

    for ci, proj in enumerate(projs):
        E = reduced_cell_embedding(mesh, mapv, projs, ci)
        gfull = mapv.cell_global[ci]
        lay = mapv.layouts[ci]
        keep_loc = np.ones(lay.ndof, dtype=bool)
        keep_loc[lay.d5] = False
        gred = to_red[gfull[keep_loc]]
        A_loc = E.T @ local_a(proj, 1.0, spec.stabilization) @ E
        b_loc = (local_b(proj) @ E)[0:1, :]
        rc = np.meshgrid(gred, gred, indexing="ij")
        rows_a.append(rc[0].ravel()); cols_a.append(rc[1].ravel()); vals_a.append(A_loc.ravel())
        rows_b.append(np.full(len(gred), ci)); cols_b.append(gred); vals_b.append(b_loc.ravel())
        F[gred] += E.T @ local_load(proj, spec.load)
        e[ci] = proj.vol

    A = sp.csr_matrix((np.concatenate(vals_a), (np.concatenate(rows_a), np.concatenate(cols_a))),
                      shape=(nv, nv))
    B = sp.csr_matrix((np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
                      shape=(nc, nv))
    dir_mask = mapv.dirichlet[keep]
    gvals = interpolate_boundary(mesh, mapv, spec.dirichlet)[keep]
    gvals[~dir_mask] = 0.0
    # the full-system oracle solves it; it reads none of the reduced-pair fields
    return GlobalSystem(A1=A, nu=spec.nu, B=B, F=F, e=e,
                        dirichlet_mask=dir_mask, dirichlet_values=gvals,
                        keep=None, E=None, Ef=None, volumes=None, pressure_ints=None, order=None, stokes_factor=[])


# ---------------------------------------------------------------------------
# Full-system solves: the differential oracle of the reduced production solve
# ---------------------------------------------------------------------------


def equilibrated_solve_full(K, rhs: np.ndarray) -> np.ndarray:
    """Direct solve with one pass of symmetric inf-norm equilibration
    (SuperLU in its default COLAMD order) and one step of iterative
    refinement: at k = 4 the full system's conditioning leaves the plain
    solve 1e-11 (velocity) and 1e-8 (pressure) from the refined one."""
    absK = abs(K)
    rowmax = np.asarray(absK.max(axis=1).todense()).ravel()
    rowmax[rowmax == 0] = 1.0
    d = 1.0 / np.sqrt(rowmax)
    Dm = sp.diags(d)
    lu = spla.splu((Dm @ K @ Dm).tocsc())
    x = d * lu.solve(d * rhs)
    return x + d * lu.solve(d * (rhs - K @ x))


def saddle_matrix_full(system, J):
    """The saddle matrix [J_ff B_f^T; B_f 0] on the free velocity DoFs, with
    the zero-mean row e bordering the pressure block when present.
    Returns (K, free velocity index)."""
    free = np.nonzero(~system.dirichlet_mask)[0]
    J_ff = J[free][:, free]
    B_f = system.B[:, free]
    if system.e is None:
        return sp.bmat([[J_ff, B_f.T], [B_f, None]], format="csc"), free
    e = sp.csr_matrix(system.e[None, :])
    return sp.bmat([[J_ff, B_f.T, None], [B_f, None, e.T], [None, e, None]], format="csc"), free


def _split(system, free: np.ndarray, x: np.ndarray):
    nf = len(free)
    nq = system.ndof_q
    u = system.dirichlet_values.copy()
    u[free] = x[:nf]
    p = x[nf: nf + nq]
    lam = float(x[nf + nq]) if system.e is not None else 0.0
    return u, p, lam


def solve_stokes_full(system) -> FlowSolution:
    """Direct sparse solve of the full assembled Stokes system."""
    K, free = saddle_matrix_full(system, system.A)
    lift = system.dirichlet_values
    F = system.F - system.A @ lift
    rhs = np.concatenate([F[free], -(system.B @ lift), [0.0] if system.e is not None else []])
    try:
        x = equilibrated_solve_full(K, rhs)
    except RuntimeError as exc:
        raise SolverError("singular Stokes system") from exc
    u, p, lam = _split(system, free, x)
    nrm = np.linalg.norm(rhs)
    res = np.linalg.norm(K @ x - rhs) / (nrm if nrm > 0 else 1.0)
    if not np.isfinite(res) or res > 1e-8:
        raise SolverError(f"direct solve failed: relative residual {res:.3e}")
    return FlowSolution(u=u, p=p, lam=lam)


def solve_navier_stokes_full(mesh, maps, spec, projs, faceprojs, opts=None,
                             system=None) -> FlowSolution:
    """Newton iteration on the full system from its Stokes solution, with the
    production stopping and divergence rules."""
    opts = opts or NSOptions()
    mapv, mapq = maps
    if system is None:
        system = assemble(mesh, maps, spec, projs, faceprojs)

    sol = solve_stokes_full(system)
    u, p, lam = sol.u, sol.p, sol.lam
    increments = []
    for it in range(NEWTON_MAX_ITER):
        C, Cg = assemble_convection(mapv, projs, u)
        K, free = saddle_matrix_full(system, system.A + C + Cg)
        Rm = system.A @ u + C @ u + system.B.T @ p - system.F
        Rc = system.B @ u
        if system.e is not None:
            rhs = -np.concatenate([Rm[free], Rc + lam * system.e, [system.e @ p]])
        else:
            rhs = -np.concatenate([Rm[free], Rc])
        dx = equilibrated_solve_full(K, rhs)

        inc = float(np.linalg.norm(dx))
        if not np.isfinite(inc) or (increments and inc > DIVERGENCE_GROWTH * min(increments)):
            increments.append(inc)
            return FlowSolution(u=u, p=p, lam=lam, increments=increments,
                                converged=False, diagnostic="Newton diverged")

        nf = len(free)
        state = np.concatenate([u[free], p, [lam] if system.e is not None else []])
        u = u.copy()
        u[free] += dx[:nf]
        p = p + dx[nf: nf + system.ndof_q]
        if system.e is not None:
            lam += float(dx[nf + system.ndof_q])
        increments.append(inc)
        base = float(np.linalg.norm(state))
        if inc < opts.tol * max(base, 1e-300) or (base == 0.0 and inc == 0.0):
            return FlowSolution(u=u, p=p, lam=lam, increments=increments)
    return FlowSolution(u=u, p=p, lam=lam, increments=increments,
                        converged=False, diagnostic="Newton did not converge")


def restrict_to_reduced(system, K, rhs):
    """A full saddle matrix and right-hand side (free velocities, all
    pressures, multiplier) restricted to the reduced unknowns: T^T K T and
    T^T rhs with T = diag(E[free][:, free reduced], S, 1), S picking each
    cell's constant pressure."""
    free = ~system.dirichlet_mask
    nc, pq = system.pressure_ints.shape
    S = sp.csr_matrix((np.ones(nc), (pq * np.arange(nc), np.arange(nc))), shape=(nc * pq, nc))
    blocks = [system.E[free][:, ~system.dirichlet_mask[system.keep]], S]
    if system.e is not None:
        blocks.append(sp.identity(1))
    T = sp.block_diag(blocks, format="csr")
    return T.T @ K @ T, T.T @ rhs


def cell_means(p: np.ndarray, system) -> np.ndarray:
    """Cell means int p / |P| of a full pressure vector."""
    ints = system.pressure_ints
    return np.sum(ints * p.reshape(ints.shape), axis=1) / system.volumes


def solve_stokes_reduced(mesh, maps, spec, projs, faceprojs):
    """The reduced-pair solution of the production Stokes solve: the velocity
    without divergence moments and the cell-mean pressures.  Returns
    (FlowSolution in reduced numbering, the reduced velocity DoFs' mask)."""
    system = assemble(mesh, maps, spec, projs, faceprojs)
    sol = solve_stokes(system)
    return FlowSolution(u=sol.u[system.keep], p=cell_means(sol.p, system), lam=sol.lam), system.keep


@dataclass
class ReducedComparison:
    max_velocity_diff: float
    max_pressure_diff: float
    dof_saving: int
    expected_saving: int

    @property
    def saving_matches(self) -> bool:
        return self.dof_saving == self.expected_saving


def reduce_and_compare(mesh, maps, spec, projs, faceprojs) -> ReducedComparison:
    """Solve the Stokes problem on the reduced pair (production) and on the
    full system (oracle) from one assembly, and compare: the velocities must
    coincide and the reduced pressure must equal the cell means of the full
    pressure."""
    mapv, mapq = maps
    system = assemble(mesh, maps, spec, projs, faceprojs)
    full = solve_stokes_full(system)
    sol = solve_stokes(system)
    du = float(np.max(np.abs(full.u - sol.u)))
    dp = float(np.max(np.abs(cell_means(full.p, system) - cell_means(sol.p, system))))
    expected = (2 * dim_poly(mapv.k - 1, 3) - 2) * mesh.n_cells
    return ReducedComparison(du, dp, reduced_saving(system.keep, mapq), expected)


# ---------------------------------------------------------------------------
# Helpers only tests call
# ---------------------------------------------------------------------------


def grad_coeff(proj, comp: int, deriv: int) -> np.ndarray:
    """Rows of pi_0grad giving d u_comp / d x_deriv over the pressure monomials."""
    pq = proj.Hq.shape[0]
    return proj.pi_0grad[(3 * comp + deriv) * pq: (3 * comp + deriv + 1) * pq, :]


def reduced_saving(keep, mapq) -> int:
    """Unknowns the reduced pair, with velocity DoFs `keep` and one pressure
    per cell, drops from the full one, whose pressure map is mapq."""
    return int(np.count_nonzero(~keep)) + mapq.ndof - mapq.ndof // mapq.n_per_cell


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


def face_coords(mesh, f: int, pts3: np.ndarray) -> np.ndarray:
    """Coordinates of points in the (tau1, tau2) frame about face f's centroid."""
    g = face_row(mesh, f)
    rel = np.atleast_2d(pts3) - g.centroid
    return np.stack([rel @ g.tau1, rel @ g.tau2], axis=1)


def scaled_mesh(mesh: PolyMesh, factor: float) -> PolyMesh:
    return PolyMesh(mesh.vertices * factor, mesh.faces, [(f + 1) * s for f, s in mesh.cells])


def face_basis(mesh, f: int, degree: int) -> MonomialBasis2:
    return MonomialBasis2(degree, np.zeros(2), mesh.face_stack.h[f])


def laplace_matrix(basis) -> np.ndarray:
    """Coefficient map of the physical Laplacian within a monomial basis."""
    L = sum(Dj @ Dj for Dj in basis.deriv_matrices())
    return L / basis.scale**2


def cross_basis(n: int, basis) -> list[np.ndarray]:
    r"""Independent spanning set of xhat /\ [P_{n-1}]^3 on the cell of `basis`,
    as coefficient columns over the vector monomials of `basis`."""
    if basis.degree < n:
        raise ValueError("basis degree too low to represent the cross fields")
    C = cross_coefficients(n, basis.degree)
    return [C[:, j] for j in range(C.shape[1])]


def extract_cells(mesh: PolyMesh, cell_ids) -> PolyMesh:
    """Submesh of selected cells with vertices and faces renumbered."""
    fmap: dict[int, int] = {}
    vmap: dict[int, int] = {}
    faces, verts, cells = [], [], []
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


def cube_and_pyramids() -> PolyMesh:
    """The hexahedron [0,1]^3 next to [1,2]x[0,1]^2 cut into six pyramids
    about its centre: two local DoF layouts in one conforming mesh."""
    corners = [(x, y, z) for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]
    verts = np.array(corners + [(1.5, 0.5, 0.5)], dtype=float)
    vid = {c: i for i, c in enumerate(corners)}
    apex = len(corners)

    def box_faces(x0):
        x1 = x0 + 1
        return [[vid[(x0, y, z)] for y, z in ((0, 0), (1, 0), (1, 1), (0, 1))],
                [vid[(x1, y, z)] for y, z in ((0, 0), (1, 0), (1, 1), (0, 1))],
                [vid[(x, 0, z)] for x, z in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, 1, z)] for x, z in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, y, 0)] for x, y in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))],
                [vid[(x, y, 1)] for x, y in ((x0, 0), (x1, 0), (x1, 1), (x0, 1))]]

    hex_faces = box_faces(0)
    faces = list(hex_faces)
    cells = [list(range(6))]
    tri_id = {}
    for base in box_faces(1):
        if sorted(base) == sorted(hex_faces[1]):
            bid = 1                        # shared with the hexahedron
        else:
            bid = len(faces)
            faces.append(base)
        cell = [bid]
        for i in range(4):
            key = tuple(sorted((base[i], base[(i + 1) % 4])))
            if key not in tri_id:
                tri_id[key] = len(faces)
                faces.append([base[i], base[(i + 1) % 4], apex])
            cell.append(tri_id[key])
        cells.append(cell)

    # orientation signs: +1 where the stored loop's normal points out of the cell
    signed = []
    for cell in cells:
        centre = verts[sorted({v for f in cell for v in faces[f]})].mean(axis=0)
        row = []
        for f in cell:
            p = verts[faces[f]]
            normal = np.cross(p[1] - p[0], p[2] - p[0])
            row.append((f + 1) * (1 if normal @ (p.mean(axis=0) - centre) > 0 else -1))
        signed.append(row)
    return PolyMesh(verts, faces, signed)


def tet_rule(verts: np.ndarray, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference rule mapped to the tetrahedron with rows `verts` (4, 3)."""
    ref_pts, ref_w = quad.reference_simplex_rule(3, exactness)
    v0 = verts[0]
    J = np.stack([verts[1] - v0, verts[2] - v0, verts[3] - v0], axis=1)
    return v0 + ref_pts @ J.T, ref_w * np.linalg.det(J)


def triangle_rule_2d(verts: np.ndarray, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference rule mapped to a 2D triangle (3, 2)."""
    ref_pts, ref_w = quad.reference_simplex_rule(2, exactness)
    v0 = verts[0]
    J = np.stack([verts[1] - v0, verts[2] - v0], axis=1)
    return v0 + ref_pts @ J.T, ref_w * np.linalg.det(J)


def edge_quadrature(p0: np.ndarray, p1: np.ndarray, exactness: int) -> quad.QuadRule:
    """Gauss rule along the segment p0 -> p1 (points in physical space)."""
    t, w = quad._gauss_01(max(1, (exactness + 2) // 2))
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return quad.QuadRule(pts, w * np.linalg.norm(p1 - p0))


# ---------------------------------------------------------------------------
# Per-entity loops: the oracles of the batched kernels
# ---------------------------------------------------------------------------


def face_row(mesh: PolyMesh, f: int) -> FaceGeom:
    """Face f's geometry: its rows of `mesh.face_stack`."""
    fs = mesh.face_stack
    return FaceGeom(fs.h[f], fs.area[f], fs.centroid[f], fs.normal[f], fs.tau1[f], fs.tau2[f])


def cell_row(mesh: PolyMesh, c: int) -> CellGeom:
    """Cell c's geometry: its rows of `mesh.cell_stack`."""
    cs = mesh.cell_stack
    return CellGeom(cs.h[c], cs.volume[c], cs.barycenter[c])


def geometry_loop(mesh: PolyMesh) -> tuple[list, list]:
    """Face and cell geometry of the mesh's topology, entity by entity: the
    reference for the stacked geometry of `PolyMesh`."""
    face_geom = []
    for f in mesh.faces:
        pts = mesh.vertices[f]
        ctr0 = pts.mean(axis=0)
        rel = pts - ctr0
        nv = len(f)
        crosses = [np.cross(rel[i], rel[(i + 1) % nv]) for i in range(nv)]
        nrm = np.sum(crosses, axis=0)
        a2 = np.linalg.norm(nrm)
        normal = nrm / a2
        area = 0.0
        centroid = np.zeros(3)
        for i in range(nv):
            a = 0.5 * (crosses[i] @ normal)
            area += a
            centroid += a * (ctr0 + (rel[i] + rel[(i + 1) % nv]) / 3.0)
        centroid /= area
        h = max(float(np.max(np.linalg.norm(pts - p, axis=1))) for p in pts)
        tau1 = pts[1] - pts[0]
        tau1 = tau1 - (tau1 @ normal) * normal
        tau1 /= np.linalg.norm(tau1)
        face_geom.append(FaceGeom(h, float(a2 / 2.0), centroid, normal, tau1, np.cross(normal, tau1)))
    cell_geom = []
    for ci, (fids, signs) in enumerate(mesh.cells):
        vol = 0.0
        mom = np.zeros(3)
        xref = mesh.vertices[mesh.cell_vertices[ci]].mean(axis=0)
        for f, s in zip(fids, signs):
            loop = mesh.faces[f] if s > 0 else mesh.faces[f][::-1]
            cf = face_geom[f].centroid
            for i in range(len(loop)):
                a = mesh.vertices[loop[i]]
                b = mesh.vertices[loop[(i + 1) % len(loop)]]
                v6 = np.dot(np.cross(cf - xref, a - xref), b - xref)
                vol += v6 / 6.0
                mom += (v6 / 6.0) * (xref + cf + a + b) / 4.0
        pts = mesh.vertices[mesh.cell_vertices[ci]]
        h = max(float(np.max(np.linalg.norm(pts - p, axis=1))) for p in pts)
        cell_geom.append(CellGeom(h, float(vol), mom / vol))
    return face_geom, cell_geom


def face_quadrature_loop(mesh, f: int, exactness: int):
    """Triangle-fan rule on one face, triangle by triangle: the reference
    for the group kernel `quadrature.face_quadrature`."""
    g = face_row(mesh, f)
    loop = mesh.faces[f]
    verts2 = (mesh.vertices[loop] - g.centroid) @ np.stack([g.tau1, g.tau2], axis=1)
    pts2, wts = [], []
    for i in range(len(loop)):
        p, w = triangle_rule_2d(np.array([np.zeros(2), verts2[i], verts2[(i + 1) % len(loop)]]),
                                exactness)
        if np.sum(w) <= 0:
            raise MeshError(f"degenerate fan triangle on face {f}")
        pts2.append(p)
        wts.append(w)
    pts2 = np.vstack(pts2)
    return pts2, g.centroid + pts2[:, :1] * g.tau1 + pts2[:, 1:] * g.tau2, np.concatenate(wts)


def cell_quadrature_loop(mesh, c: int, exactness: int) -> quad.QuadRule:
    """Tetrahedral-subdivision rule on one cell, one `tet_rule` per
    sub-tetrahedron: the reference for `quadrature.cell_quadrature`."""
    xb = mesh.cell_stack.barycenter[c]
    pts, wts = [], []
    for f, sign in zip(*mesh.cells[c]):
        loop = mesh.faces[f] if sign > 0 else mesh.faces[f][::-1]
        cf = mesh.face_stack.centroid[f]
        for i in range(len(loop)):
            verts = np.array([xb, cf, mesh.vertices[loop[i]], mesh.vertices[loop[(i + 1) % len(loop)]]])
            p, w = tet_rule(verts, exactness)
            if np.sum(w) <= 1e-300:
                raise MeshError(f"cell {c} not star-shaped about barycenter")
            pts.append(p)
            wts.append(w)
    return quad.QuadRule(np.vstack(pts), np.concatenate(wts))


@dataclass
class FaceProjectionsLoop(FaceProjections):
    """A face's projections with what the group kernel forms but does not
    keep: the face's id, k, the face DoF count, the face diameter h (the
    scale of the face basis), the DoF-euclidean projection dproj
    (pi_{k,2}, ndof) and the quadrature points pts2 in the face frame."""

    f: int
    k: int
    ndof: int
    h: float
    dproj: np.ndarray
    pts2: np.ndarray


def face_projections_loop(mesh, f: int, k: int, edge_points3) -> FaceProjectionsLoop:
    """The face projections of one face, built alone: the reference for the
    group kernel `projection.build_face_projections`."""
    g = face_row(mesh, f)
    loop = mesh.faces[f]
    nv = len(loop)
    n_mom = dim_poly(k - 2, 2)
    ndof = nv * k + n_mom
    basis = face_basis(mesh, f, k + 1)
    npk = dim_poly(k, 2)
    npk1 = dim_poly(k + 1, 2)
    deg = 2 * (k + 1)
    pts2, pts3, w = face_quadrature_loop(mesh, f, deg)
    phi = face_basis(mesh, f, deg).eval(pts2)
    ints = phi.T @ w
    a_k = multi_indices(k, 2)
    a_k1 = multi_indices(k + 1, 2)
    D = np.zeros((ndof, npk))
    D[:nv, :] = basis.eval(face_coords(mesh, f, mesh.vertices[loop]))[:, :npk]
    eids, _ = mesh.face_edges[f]
    for le in range(nv):
        ep2 = face_coords(mesh, f, edge_points3[eids[le]])
        D[nv + le * (k - 1): nv + (le + 1) * (k - 1), :] = basis.eval(ep2)[:, :npk]
    D[nv * k:, :] = ints[..., product_positions(deg, 2, a_k[:n_mom], a_k)] / g.area
    Q, R = qr(D, mode="economic")
    if np.min(np.abs(np.diag(R))) < 1e-12 * np.max(np.abs(np.diag(R))):
        raise np.linalg.LinAlgError(f"rank-deficient DoF system on face {f}")
    dproj = solve_triangular(R, Q.T)
    MOM = np.zeros((npk1, ndof))
    MOM[:n_mom, nv * k:] = g.area * np.eye(n_mom)
    MOM[n_mom:, :] = ints[..., product_positions(deg, 2, a_k1[n_mom:], a_k)] @ dproj
    l2 = solve(ints[..., product_positions(deg, 2, a_k1, a_k1)], MOM)
    return FaceProjectionsLoop(f=f, k=k, ndof=ndof, h=g.h, dproj=dproj, l2=l2,
                               pts2=pts2, pts3=pts3, w=w, vals=phi[:, :npk1].copy())


def interpolate_boundary_loop(mesh, mapv, g) -> np.ndarray:
    """Boundary DoF values entity by entity, one call of g per vertex, edge
    and face: the reference for `dofspace.interpolate_boundary`."""
    k = mapv.k
    g = _as_field(g)
    dof = np.zeros(mapv.ndof)
    for v in np.nonzero(mesh.boundary_vertex)[0]:
        dof[3 * v: 3 * v + 3] = g(mesh.vertices[v][None, :]).ravel()
    n_ep = mapv.n_edge_pts
    for e in np.nonzero(mesh.boundary_edge)[0]:
        base = mapv.offsets["edge"] + 3 * n_ep * e
        dof[base: base + 3 * n_ep] = g(mapv.edge_points[e]).ravel()
    n_fm = mapv.n_face_moms
    for f in np.nonzero(mesh.boundary_face)[0]:
        geom = face_row(mesh, f)
        pts2, pts3, w = face_quadrature_loop(mesh, f, 2 * k + 2)
        phi = face_basis(mesh, f, k - 2).eval(pts2)
        vals = g(pts3)
        base = mapv.offsets["face"] + 3 * n_fm * f
        for d, direction in enumerate((geom.normal, geom.tau1, geom.tau2)):
            comp = vals @ direction
            dof[base + d * n_fm: base + (d + 1) * n_fm] = \
                (phi * (w * comp)[:, None]).sum(axis=0) / geom.area
    return dof


def per_entry_case_fields(name: str, k: int, nu: float) -> dict:
    """The fields of a manufactured case from one scalar lambda per entry:
    the reference for the one-lambdify-per-field functions of `cases`."""
    u_expr, p_expr, convective = cases._expressions(name, k)
    u, grad_u, p, f, eps = cases._symbolic(name, u_expr, p_expr, nu, convective)

    def entries(exprs, shape):
        funs = [sympy.lambdify(cases._X, e, "numpy") for e in exprs]

        def call(pts):
            out = np.empty((len(pts), len(funs)))
            for i, fun in enumerate(funs):
                out[:, i] = fun(pts[:, 0], pts[:, 1], pts[:, 2])
            return out.reshape((len(pts),) + shape)

        return call

    p_fun, eps_fun = entries([p], ()), entries(eps, (3, 3))

    def traction(pts, normal):
        out = np.zeros((len(pts), 3))
        for i in range(3):
            for j in range(3):
                out[:, i] += nu * eps_fun(pts)[:, i, j] * normal[j]
        return out + p_fun(pts)[:, None] * normal[None, :]

    return {"velocity": entries(u, (3,)), "grad_velocity": entries(grad_u, (3, 3)),
            "pressure": p_fun, "load": entries(f, (3,)), "traction": traction}


# ---------------------------------------------------------------------------
# Per-cell loops, COO scatter and CSR/CSC equilibration: the oracles of the
# DoF map's CSC pattern and the sums into it
# ---------------------------------------------------------------------------


def dof_maps_loop(mesh: PolyMesh, k: int) -> tuple[dict, list, list, np.ndarray]:
    """(offsets, cell_global, layouts, dirichlet) cell by cell and entity by
    entity: the reference for `dofspace.build_dof_maps`."""
    n_ep = k - 1
    n_fm = dim_poly(k - 2, 2)
    n_d4 = cross_dimension(k - 2)
    n_d5 = dim_poly(k - 1, 3) - 1
    off_vertex = 0
    off_edge = 3 * mesh.n_vertices
    off_face = off_edge + 3 * n_ep * mesh.n_edges
    off_cell = off_face + 3 * n_fm * mesh.n_faces
    ndof = off_cell + (n_d4 + n_d5) * mesh.n_cells
    offsets = {"vertex": off_vertex, "edge": off_edge, "face": off_face, "cell": off_cell}

    cell_global = []
    layouts = []
    for ci in range(mesh.n_cells):
        vs = mesh.cell_vertices[ci]
        es = mesh.cell_edges[ci]
        fs = mesh.cells[ci][0]
        gl = []
        for v in vs:
            gl.extend(off_vertex + 3 * v + np.arange(3))
        for e in es:
            gl.extend(off_edge + 3 * n_ep * e + np.arange(3 * n_ep))
        for f in fs:
            gl.extend(off_face + 3 * n_fm * f + np.arange(3 * n_fm))
        gl.extend(off_cell + (n_d4 + n_d5) * ci + np.arange(n_d4 + n_d5))
        cell_global.append(np.array(gl, dtype=int))

        pos = 0
        vertex_idx = np.arange(3 * len(vs)).reshape(len(vs), 3)
        pos += 3 * len(vs)
        edge_idx = pos + np.arange(3 * n_ep * len(es)).reshape(len(es), n_ep, 3)
        pos += 3 * n_ep * len(es)
        face_idx = pos + np.arange(3 * n_fm * len(fs)).reshape(len(fs), 3, n_fm)
        pos += 3 * n_fm * len(fs)
        d4_idx = pos + np.arange(n_d4)
        pos += n_d4
        d5_idx = pos + np.arange(n_d5)
        pos += n_d5
        layouts.append(CellDofLayout(vertex_idx, edge_idx, face_idx, d4_idx, d5_idx, pos))

    dirichlet = np.zeros(ndof, dtype=bool)
    for v in np.nonzero(mesh.boundary_vertex)[0]:
        dirichlet[off_vertex + 3 * v: off_vertex + 3 * v + 3] = True
    for e in np.nonzero(mesh.boundary_edge)[0]:
        dirichlet[off_edge + 3 * n_ep * e: off_edge + 3 * n_ep * (e + 1)] = True
    for f in np.nonzero(mesh.boundary_face)[0]:
        dirichlet[off_face + 3 * n_fm * f: off_face + 3 * n_fm * (f + 1)] = True
    return offsets, cell_global, layouts, dirichlet


def scatter_oracle(shape: tuple[int, int], rows: list[np.ndarray], cols: list[np.ndarray],
                   *blocks: list[np.ndarray]) -> list[sp.csr_matrix]:
    """Sum group-stacked cell blocks into CSR matrices of `shape`.

    rows[g] (nc, m) and cols[g] (nc, n) are the global indices of group g's
    cells; each item of `blocks` holds one output's (nc, m, n) blocks per
    group.  The COO indices are broadcast once and shared by every output."""
    r = np.concatenate([np.broadcast_to(ri[:, :, None], ri.shape + cj.shape[1:]).ravel()
                        for ri, cj in zip(rows, cols)])
    c = np.concatenate([np.broadcast_to(cj[:, None, :], ri.shape + cj.shape[1:]).ravel()
                        for ri, cj in zip(rows, cols)])
    return [sp.csr_matrix((np.concatenate([b.ravel() for b in out]), (r, c)), shape=shape)
            for out in blocks]


def equilibrated_solve_oracle(K, rhs: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, int]:
    """The equilibrated, permuted solve by the float32 factor, through
    scipy's products and format conversions, and the entries SuperLU stores
    for that factor: the reference for `flow._EquilibratedLU.precondition`
    and `fill`."""
    absK = abs(K)
    rowmax = np.asarray(absK.max(axis=1).todense()).ravel()
    rowmax[rowmax == 0] = 1.0
    d = 1.0 / np.sqrt(rowmax)
    Dm = sp.diags(d)
    Ks = (Dm @ K @ Dm).tocsr()[order][:, order].tocsc().astype(np.float32)
    lu = spla.splu(Ks, permc_spec="NATURAL", diag_pivot_thresh=0.01)
    x = np.empty_like(rhs)
    x[order] = lu.solve((d * rhs)[order].astype(np.float32))
    return d * x, lu.nnz


def classify_neumann_loop(mesh, spec) -> list[int]:
    """Neumann faces read from the per-face records: the reference for
    `forms.classify_neumann`."""
    if spec.neumann_faces is None:
        return []
    out = []
    for f in np.nonzero(mesh.boundary_face)[0]:
        g = face_row(mesh, f)
        sign = mesh.face_cell_signs[f, 0]
        if spec.neumann_faces(g.centroid, sign * g.normal):
            out.append(int(f))
    return out


def dirichlet_mask_loop(mesh, mapv, neumann) -> np.ndarray:
    """The DoFs of the boundary faces that are not Neumann, face by face:
    the reference for the Dirichlet mask of `forms.assemble`."""
    dir_mask = np.zeros(mapv.ndof, dtype=bool)
    n_ep, n_fm = mapv.n_edge_pts, mapv.n_face_moms
    for f in set(np.nonzero(mesh.boundary_face)[0]) - set(neumann):
        dir_mask[3 * mesh.faces[f][:, None] + np.arange(3)] = True
        dir_mask[mapv.offsets["edge"] + 3 * n_ep * mesh.face_edges[f][0][:, None]
                 + np.arange(3 * n_ep)] = True
        dir_mask[mapv.offsets["face"] + 3 * n_fm * f + np.arange(3 * n_fm)] = True
    return dir_mask


def reduced_keep_loop(mesh, mapv) -> np.ndarray:
    """The velocity DoFs without the divergence moments, cell by cell: the
    reference for `dofspace.build_reduced_maps`."""
    keep = np.ones(mapv.ndof, dtype=bool)
    blk = mapv.n_d4 + mapv.n_d5
    for ci in range(mesh.n_cells):
        start = mapv.offsets["cell"] + blk * ci + mapv.n_d4
        keep[start: start + mapv.n_d5] = False
    return keep


def reduced_embedding_coo(mesh, mapv, projs, keep) -> sp.csr_matrix:
    """The reduced embedding from COO triplets and the per-face areas:
    the reference for `forms.reduced_embedding`."""
    fc, slot = np.nonzero(mesh.face_cells >= 0)
    normal0 = mapv.offsets["face"] + 3 * mapv.n_face_moms * fc
    area = mesh.face_stack.area[fc]
    flux = sp.csr_matrix((mesh.face_cell_signs[fc, slot] * area,
                          (mesh.face_cells[fc, slot], (np.cumsum(keep) - 1)[normal0])),
                         shape=(mesh.n_cells, int(keep.sum())))
    d5 = np.nonzero(~keep)[0]
    mono = np.stack([pr.mono_int[1: 1 + mapv.n_d5] / pr.vol**2 for pr in projs])
    per_cell = sp.csr_matrix((mono.ravel(), (d5, np.arange(d5.size) // mapv.n_d5)),
                             shape=(mapv.ndof, mesh.n_cells))
    return (sp.identity(mapv.ndof, format="csr")[:, keep] + per_cell @ flux).tocsr()


def local_b(proj) -> np.ndarray:
    """Exact pairing of div v against the pressure monomials through the cell
    projections, Hq @ div: (pi_{k-1,3}, ndof).  The projections reproduce
    the closed-form rows of `forms.divergence_matrix` to round-off."""
    return proj.Hq @ proj.div


def divergence_matrix_loop(mesh, mapv) -> sp.csr_matrix:
    """The closed-form divergence pairing cell by cell from the per-cell
    records: the flux row sign |f| on each face's constant normal moment,
    faces ascending, then |P| on each divergence moment.  The reference
    for `forms.divergence_matrix`."""
    blk = mapv.n_d4 + mapv.n_d5
    rows = []
    for ci, (fids, signs) in enumerate(mesh.cells):
        order = np.argsort(fids)
        rows.append((mapv.offsets["face"] + 3 * mapv.n_face_moms * fids[order],
                     [s * mesh.face_stack.area[f] for f, s in zip(fids[order], signs[order])]))
        for b in range(mapv.n_d5):
            rows.append(([mapv.offsets["cell"] + blk * ci + mapv.n_d4 + b], [mesh.cell_stack.volume[ci]]))
    indptr = np.cumsum([0] + [len(cols) for cols, _ in rows])
    return sp.csr_matrix((np.concatenate([v for _, v in rows]), np.concatenate([c for c, _ in rows]), indptr),
                         shape=(len(rows), mapv.ndof))


DENSE_DOF_CAP = 3000
SV_RTOL = 1e-9


def assemble_divergence(mesh, k: int, maps=None) -> np.ndarray:
    """Dense global divergence pairing (dim Q x dim V), no boundary
    conditions; built from the DoF map alone, without projections."""
    mapv, _ = maps or build_dof_maps(mesh, k)
    return divergence_matrix(mesh, mapv).toarray()


def svd_rank(mesh, k: int) -> tuple[int, int, float]:
    """(rank, kernel dimension, singular-value gap) of B by dense SVD of the
    row-normalised pairing, counting singular values above SV_RTOL times the
    largest: the oracle of `derham.certified_rank`.  The rank is conclusive
    when the gap (the last kept over the first dropped value) is >= 10."""
    B = assemble_divergence(mesh, k)
    if B.shape[1] > DENSE_DOF_CAP:
        raise ValueError(f"dense SVD refused: {B.shape[1]} DoFs exceed cap {DENSE_DOF_CAP}")
    scale = np.linalg.norm(B, axis=1)
    scale[scale == 0] = 1.0
    sv = np.linalg.svd(B / scale[:, None], compute_uv=False)
    rank = int(np.sum(sv > SV_RTOL * sv[0]))
    gap = sv[rank - 1] / max(sv[rank], 1e-300) if rank < len(sv) else np.inf
    return rank, B.shape[1] - rank, float(gap)


# ---------------------------------------------------------------------------
# Per-face and per-cell loops: the oracles of the flat mesh topology, the
# tetra generators and the quality report
# ---------------------------------------------------------------------------


def topology_loop(vertices, faces, signed_cells) -> SimpleNamespace:
    """Validation, edges, incidence, boundary flags, cell vertex and edge
    lists and cell groups, face by face and cell by cell: the reference for
    the flat topology of `PolyMesh`.  Raises the same `MeshError`s, except
    for the checks the flat build adds (non-integral ids, a face listed
    twice by one cell, a vertex in no face, two faces with one vertex set)."""
    t = SimpleNamespace()
    t.faces = [np.asarray(f, dtype=int) for f in faces]
    t.cells = []
    for c in signed_cells:
        c = np.asarray(c, dtype=int)
        if np.any(c == 0):
            raise MeshError("cell face ids are signed and 1-based; 0 is invalid")
        t.cells.append((np.abs(c) - 1, np.sign(c)))

    nv = len(vertices)
    for i, f in enumerate(t.faces):
        if len(f) < 3 or len(np.unique(f)) != len(f):
            raise MeshError(f"face {i} must be a loop of >= 3 distinct vertices")
        if f.min() < 0 or f.max() >= nv:
            raise MeshError(f"face {i}: vertex index out of range")
    nf = len(t.faces)
    for i, (fids, _) in enumerate(t.cells):
        if len(fids) < 4:
            raise MeshError(f"cell {i} must have >= 4 faces")
        if fids.min() < 0 or fids.max() >= nf:
            raise MeshError(f"cell {i}: face index out of range")

    key_to_id: dict[tuple[int, int], int] = {}
    t.face_edges = []
    for f in t.faces:
        eids = []
        dirs = []
        n = len(f)
        for i in range(n):
            a, b = int(f[i]), int(f[(i + 1) % n])
            key = (min(a, b), max(a, b))
            if key not in key_to_id:
                key_to_id[key] = len(key_to_id)
            eids.append(key_to_id[key])
            dirs.append(1 if a < b else -1)
        t.face_edges.append((np.array(eids), np.array(dirs)))
    t.edges = np.array(sorted(key_to_id, key=key_to_id.get), dtype=int).reshape(-1, 2)

    t.face_cells = np.full((nf, 2), -1, dtype=int)
    t.face_cell_signs = np.zeros((nf, 2), dtype=int)
    for ci, (fids, signs) in enumerate(t.cells):
        for f, s in zip(fids, signs):
            slot = 0 if t.face_cells[f, 0] < 0 else 1
            if slot == 1 and t.face_cells[f, 1] >= 0:
                raise MeshError(f"non-manifold face {f}: more than 2 incident cells")
            t.face_cells[f, slot] = ci
            t.face_cell_signs[f, slot] = s
    for f in range(nf):
        if t.face_cells[f, 0] < 0:
            raise MeshError(f"face {f} belongs to no cell")
        if t.face_cells[f, 1] >= 0:
            if t.face_cell_signs[f, 0] * t.face_cell_signs[f, 1] != -1:
                raise MeshError(f"interior face {f} must have opposite orientation signs")
    t.boundary_face = t.face_cells[:, 1] < 0
    t.boundary_vertex = np.zeros(nv, dtype=bool)
    t.boundary_edge = np.zeros(len(t.edges), dtype=bool)
    for f in np.nonzero(t.boundary_face)[0]:
        t.boundary_vertex[t.faces[f]] = True
        t.boundary_edge[t.face_edges[f][0]] = True
    t.cell_vertices = []
    t.cell_edges = []
    for fids, _ in t.cells:
        t.cell_vertices.append(np.unique(np.concatenate([t.faces[f] for f in fids])))
        t.cell_edges.append(np.unique(np.concatenate([t.face_edges[f][0] for f in fids])))

    keys = [(len(vs), *[len(t.faces[f]) for f in fids])
            for vs, (fids, _) in zip(t.cell_vertices, t.cells)]
    t.cell_groups = [np.flatnonzero([key == other for other in keys]) for key in dict.fromkeys(keys)]
    return t


def mesh_from_tets_loop(nodes: np.ndarray, tets: np.ndarray) -> PolyMesh:
    """Tet by tet, face by face: the reference for `meshing.mesh_from_tets`."""
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


_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def generate_tetra_mesh_loop(n: int, jitter: float = 0.15, seed: int = 0) -> PolyMesh:
    """Grid point by grid point, one jitter draw each, and box by box: the
    reference for `meshing.generate_tetra_mesh`."""
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
    return mesh_from_tets_loop(pts, np.array(tets))


@dataclass
class QualityReportLoop(QualityReport):
    """A quality report with the per-cell ratios min(h_e/h_P) over the
    cell's edges and min(h_f/h_P) over its faces, whose minimum the gate
    compares against rho."""

    edge_ratio: np.ndarray
    face_ratio: np.ndarray


def quality_check_loop(mesh, rho: float) -> QualityReportLoop:
    """Cell by cell over the entities' geometry rows: the reference for
    `meshing.quality_check`."""
    nc = mesh.n_cells
    edge_ratio = np.empty(nc)
    face_ratio = np.empty(nc)
    ball_ratio = np.empty(nc)
    length = np.linalg.norm(mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]], axis=1)
    for ci in range(nc):
        h = mesh.cell_stack.h[ci]
        edge_ratio[ci] = min(length[e] for e in mesh.cell_edges[ci]) / h
        face_ratio[ci] = min(mesh.face_stack.h[f] for f in mesh.cells[ci][0]) / h
        xb = mesh.cell_stack.barycenter[ci]
        r = np.inf
        for f, s in zip(*mesh.cells[ci]):
            g = face_row(mesh, f)
            r = min(r, s * np.dot(g.centroid - xb, g.normal))
        ball_ratio[ci] = r / h
    per_cell = np.minimum(edge_ratio, face_ratio)
    failing = [int(i) for i in np.nonzero(per_cell < rho)[0]]
    return QualityReportLoop(
        rho=rho,
        edge_ratio=edge_ratio,
        face_ratio=face_ratio,
        ball_ratio=ball_ratio,
        rho_hat=float(per_cell.min()),
        passed=not failing,
        failing_cells=failing,
    )
