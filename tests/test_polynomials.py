import numpy as np
import pytest

from helpers import cell_row, cross_basis, laplace_matrix
from vemflow.polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    cross_dimension,
    cross_field_descriptors,
    decomp_basis,
    dim_poly,
    gradient_coefficients,
    multi_indices,
)


@pytest.mark.parametrize("n,d,expected", [
    (2, 3, 10),
    (-1, 3, 0),       # P_{-1} = {0}
    (1, 2, 3),
    (0, 3, 1),
    (4, 3, 35),
    (3, 2, 10),
])
def test_dim_poly(n, d, expected):
    assert dim_poly(n, d) == expected


def test_multi_indices_graded_and_complete():
    idx = multi_indices(3, 3)
    assert len(idx) == dim_poly(3, 3)
    assert idx[0] == (0, 0, 0)
    degs = [sum(a) for a in idx]
    assert degs == sorted(degs)
    assert len(set(idx)) == len(idx)


def test_monomial_eval_and_grad():
    basis = MonomialBasis3(3, np.array([0.5, 0.5, 0.5]), 2.0)
    pts = np.random.default_rng(0).uniform(0, 1, (20, 3))
    vals = basis.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)   # m_0 == 1
    # finite-difference check of the gradient
    grads = basis.eval_grad(pts)
    eps = 1e-6
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = eps
        fd = (basis.eval(pts + dp) - basis.eval(pts - dp)) / (2 * eps)
        assert np.max(np.abs(fd - grads[:, :, j])) < 1e-8


def test_derivative_matrices_consistent_with_grad():
    basis = MonomialBasis3(4, np.zeros(3), 1.3)
    pts = np.random.default_rng(1).uniform(-1, 1, (10, 3))
    vals = basis.eval(pts)
    grads = basis.eval_grad(pts)
    for j, D in enumerate(basis.deriv_matrices()):
        assert np.allclose(vals @ (D / basis.scale), grads[:, :, j], atol=1e-12)


def test_laplace_matrix():
    basis = MonomialBasis2(3, np.zeros(2), 0.7)
    L = laplace_matrix(basis)
    # laplace of xhat^2 + yhat^2 is 4 / scale^2 in physical coordinates
    c = np.zeros(basis.n)
    c[basis.index_of((2, 0))] = 1.0
    c[basis.index_of((0, 2))] = 1.0
    lap = L @ c
    expected = np.zeros(basis.n)
    expected[0] = 4.0 / basis.scale**2
    assert np.allclose(lap, expected)


def test_cross_basis_k1_fields():
    # n=1: the three scaled rotation fields
    basis = MonomialBasis3(1, np.zeros(3), 1.0)
    fields = cross_basis(1, basis)
    assert len(fields) == 3
    pts = np.random.default_rng(2).uniform(-1, 1, (5, 3))
    ph = basis.eval(pts)
    expected = [
        np.stack([0 * pts[:, 0], pts[:, 2], -pts[:, 1]], axis=1),
        np.stack([-pts[:, 2], 0 * pts[:, 0], pts[:, 0]], axis=1),
        np.stack([pts[:, 1], -pts[:, 0], 0 * pts[:, 0]], axis=1),
    ]
    ns = basis.n
    for coef, exp in zip(fields, expected):
        vals = np.stack([ph @ coef[c * ns: (c + 1) * ns] for c in range(3)], axis=1)
        assert np.allclose(vals, exp)


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 3), (2, 11), (3, 26)])
def test_cross_dimension(n, expected):
    assert cross_dimension(n) == expected
    assert len(cross_field_descriptors(n)) == expected


def test_cross_basis_independent_by_gram_rank(cube1):
    # Gram rank of the cross spanning set equals its cardinality
    from vemflow import quadrature as quad

    rule = quad.cell_quadrature(cube1, 0, 8)
    g = cell_row(cube1, 0)
    for n in (1, 2, 3):
        basis = MonomialBasis3(n, g.barycenter, g.h)
        fields = cross_basis(n, basis)
        ph = basis.eval(rule.points)
        ns = basis.n
        vals = [np.stack([ph @ c[j * ns: (j + 1) * ns] for j in range(3)], axis=1) for c in fields]
        G = np.array([[rule.weights @ np.sum(a * b, axis=1) for b in vals] for a in vals])
        assert np.linalg.matrix_rank(G, tol=1e-10 * np.linalg.norm(G)) == len(fields)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decomposition_direct_sum(k, cube1):
    """The adapted [gradients | cross] basis of [P_k]^3 has full Gram rank."""
    from vemflow import quadrature as quad

    dec = decomp_basis(k)
    n = 3 * dim_poly(k, 3)
    assert dec.T.shape == (n, n)
    assert np.linalg.matrix_rank(dec.T) == n
    g = cell_row(cube1, 0)
    rule = quad.cell_quadrature(cube1, 0, 2 * k + 2)
    basis = MonomialBasis3(k, g.barycenter, g.h)
    ph = basis.eval(rule.points)
    ns = basis.n
    vals = np.empty((len(rule.weights), n, 3))
    for col in range(n):
        for c in range(3):
            vals[:, col, c] = ph @ dec.T[c * ns: (c + 1) * ns, col]
    G = np.einsum("q,qic,qjc->ij", rule.weights, vals, vals)
    assert np.linalg.matrix_rank(G, tol=1e-10 * np.linalg.norm(G)) == n


def test_gradient_coefficients_count():
    for k in (2, 3):
        G, src = gradient_coefficients(k)
        assert G.shape == (3 * dim_poly(k, 3), dim_poly(k + 1, 3) - 1)
        assert len(src) == G.shape[1]


def test_scaled_monomial_magnitudes_mesh_independent():
    """max |m_a| over each cell stays within fixed bounds across refinements."""
    from vemflow.meshing import generate_structured_cubes

    for n in (1, 2, 4):
        mesh = generate_structured_cubes(n)
        rng = np.random.default_rng(3)
        for ci in range(0, mesh.n_cells, max(1, mesh.n_cells // 4)):
            g = cell_row(mesh, ci)
            basis = MonomialBasis3(3, g.barycenter, g.h)
            pts = g.barycenter + (rng.uniform(-0.5, 0.5, (200, 3))) / n
            vals = np.abs(basis.eval(pts)).max(axis=0)
            assert vals.max() <= 1e2
            assert vals.max() >= 1e-2
