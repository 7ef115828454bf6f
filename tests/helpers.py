"""Shared oracles and field builders for the test suite.

The integral oracles here are independent of the projector/quadrature code
paths they are used to check: closed-form monomial integrals on the unit
cube and unit tetrahedron, and direct pointwise evaluation of analytic
fields for form values.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from vemflow.polynomials import dim_poly


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


def face_poly_dofs(mesh, mapv, f, fp, coef: np.ndarray) -> np.ndarray:
    """Scalar face DoF vector sampled from the 2D polynomial with the given
    coefficients over the face basis of fp (degree k part)."""
    from vemflow.dofspace import face_coords

    k = mapv.k
    npk = dim_poly(k, 2)
    loop = mesh.faces[f]
    nv = len(loop)
    d = np.zeros(fp.ndof)
    d[:nv] = fp.basis.eval(face_coords(mesh, f, mesh.vertices[loop]))[:, :npk] @ coef
    eids, _ = mesh.face_edges[f]
    for le in range(nv):
        ep2 = face_coords(mesh, f, mapv.edge_points[eids[le]])
        d[nv + le * (k - 1): nv + (le + 1) * (k - 1)] = fp.basis.eval(ep2)[:, :npk] @ coef
    phi = fp.basis.eval(fp.pts2)
    vals = phi[:, :npk] @ coef
    nm = dim_poly(k - 2, 2)
    g = mesh.face_geom[f]
    d[nv * k:] = (phi[:, :nm] * (fp.w * vals)[:, None]).sum(axis=0) / g.area
    return d


def _projected_values(proj):
    """Evaluate the projected basis fields at the cell quadrature points.

    Returns (P, G): P is (nq, ndof, 3) values of Pi^0_k of each basis
    function, G is (nq, ndof, 3, 3) values of the projected gradients."""
    pk = proj.Hk.shape[0]
    pq = proj.Hq.shape[0]
    phi = proj.basis.eval(proj.rule.points)
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


def convection_oracle(proj, w_loc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(w) and Cg(w) of one cell by the cell quadrature rule, evaluating the
    projected fields pointwise: the reference for the quadrature-free kernel."""
    P, G = _projected_values(proj)
    wq = proj.rule.weights
    Pw = np.einsum("qjc,j->qc", P, w_loc)
    Gw = np.einsum("qjab,j->qab", G, w_loc)
    T = np.einsum("qjab,qb->qja", G, Pw)       # (grad u_j) w  at points
    U = np.einsum("qab,qjb->qja", Gw, P)       # (grad w) u_j  at points
    PW = P * wq[:, None, None]
    C = np.einsum("qia,qja->ij", PW, T, optimize=True)
    Cg = np.einsum("qia,qja->ij", PW, U, optimize=True)
    return C, Cg


def convection_oracle_scatter(mapv, projs, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense global C(u), Cg(u) scattered cell by cell from the oracle."""
    C = np.zeros((mapv.ndof, mapv.ndof))
    Cg = np.zeros((mapv.ndof, mapv.ndof))
    for ci, proj in enumerate(projs):
        gdof = mapv.cell_global[ci]
        Cl, Cgl = convection_oracle(proj, u[gdof])
        C[np.ix_(gdof, gdof)] += Cl
        Cg[np.ix_(gdof, gdof)] += Cgl
    return C, Cg
