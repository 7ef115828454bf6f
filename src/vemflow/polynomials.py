"""Scaled monomial bases and polynomial-space bookkeeping on cells and faces.

All local polynomial algebra runs in scaled coordinates (x - center)/scale so
that basis values stay O(1) on the owning mesh entity.  Multi-indices are
ordered graded-lexicographically, which fixes every matrix layout in the
package.

Every table over multi-indices reads one position array: `_index_array(n, d)`
holds at each exponent tuple a its graded position among the degree-n
multi-indices in d variables, and -1 past degree n.  The derivative,
gradient and cross tables scatter at the positions of multi-indices shifted
down or up by one, and the gathers of the mass and triple-product integrals
read the positions of sums of multi-indices (`product_positions`), all as
array expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np


def dim_poly(n: int, d: int) -> int:
    """Dimension of polynomials of degree <= n in d variables; 0 for n < 0."""
    return comb(n + d, d) if n >= 0 else 0


@lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Graded-lexicographic multi-indices with |alpha| <= n in d variables:
    by degree, then by decreasing exponents."""
    return tuple(sorted((a for a in product(range(n + 1), repeat=d) if sum(a) <= n),
                        key=lambda a: (sum(a), [-x for x in a])))


@lru_cache(maxsize=None)
def _index_array(n: int, d: int) -> np.ndarray:
    """The position array of the degree-n multi-indices in d variables,
    shape (n + 1,) * d and read-only: entry a holds the graded position of
    the multi-index a, or -1 where |a| > n."""
    idx = np.full((n + 1,) * d, -1)
    idx[tuple(np.array(multi_indices(n, d), dtype=int).reshape(-1, d).T)] = np.arange(dim_poly(n, d))
    idx.flags.writeable = False
    return idx


def _positions(alphas, n: int) -> np.ndarray:
    """Graded positions among the multi-indices of degree <= n of the rows of
    `alphas` (..., d), each entry in 0..n; a row of degree > n raises."""
    alphas = np.asarray(alphas, dtype=int)
    pos = _index_array(n, alphas.shape[-1])[tuple(np.moveaxis(alphas, -1, 0))]
    if np.any(pos < 0):
        raise ValueError(f"a multi-index has degree > {n}")
    return pos


@lru_cache(maxsize=None)
def product_positions(degree: int, dim: int, *factors: tuple) -> np.ndarray:
    """Positions among the monomials of degree <= `degree` in `dim` variables
    of the products m_a m_b (m_c ...), one axis per factor of multi-indices
    that a (b, c, ...) runs over; read-only, since every caller shares it."""
    rows = [np.array(f, dtype=int).reshape(-1, dim) for f in factors]
    idx = _positions(sum(r.reshape((1,) * i + (-1,) + (1,) * (len(rows) - 1 - i) + (dim,))
                         for i, r in enumerate(rows)), degree)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _derivative_matrices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Unscaled derivative matrices D_j with (D_j c) the coefficients of
    d/dxhat_j of the polynomial with coefficients c (same degree-n basis):
    one scatter of a_j at (position of a - e_j, position of a) per variable.
    Read-only, since every basis of degree n shares them."""
    alphas = np.array(multi_indices(n, d), dtype=int).reshape(-1, d)
    mats = tuple(np.zeros((len(alphas), len(alphas))) for _ in range(d))
    for j, D in enumerate(mats):
        src = np.flatnonzero(alphas[:, j])
        D[_positions(alphas[src] - np.eye(d, dtype=int)[j], n), src] = alphas[src, j]
        D.flags.writeable = False
    return mats


class _MonomialBasis:
    """Shared machinery for scaled monomial bases in d variables."""

    dim_space: int

    def __init__(self, degree: int, center, scale: float):
        self.degree = int(degree)
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.alphas = np.array(multi_indices(self.degree, self.dim_space), dtype=int)
        self.n = len(self.alphas)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all monomials at physical points -> (npts, n), a
        Fortran-ordered array: the values are built one monomial row at a
        time, which gathers and multiplies contiguous rows."""
        xi = ((np.atleast_2d(points) - self.center) / self.scale).T
        # pw[p, j] = xi_j ** p by repeated multiplication, as np.vander does
        pw = np.empty((self.degree + 1,) + xi.shape)
        pw[0] = 1.0
        for p in range(1, self.degree + 1):
            np.multiply(pw[p - 1], xi, out=pw[p])
        vals = pw[self.alphas[:, 0], 0]
        for j in range(1, self.dim_space):
            vals *= pw[self.alphas[:, j], j]
        return vals.T

    def eval_grad(self, points: np.ndarray) -> np.ndarray:
        """Physical-coordinate gradients at points -> (npts, n, d)."""
        vals = self.eval(points)
        return np.stack([vals @ (D / self.scale) for D in self.deriv_matrices()], axis=2)

    def deriv_matrices(self) -> tuple[np.ndarray, ...]:
        """Coefficient maps of d/dxhat_j (divide by scale for physical d/dx_j)."""
        return _derivative_matrices(self.degree, self.dim_space)

    def index_of(self, alpha):
        """The position of the multi-index alpha in the basis, or an array of
        the positions of the rows of an array of them."""
        return _positions(alpha, self.degree)


class MonomialBasis3(_MonomialBasis):
    """Scaled monomials on a polyhedron: m_a = ((x - x_B)/h_P)^a, |a| <= n."""

    dim_space = 3


class MonomialBasis2(_MonomialBasis):
    """Scaled monomials on a face, in its (tau_1, tau_2) in-plane frame."""

    dim_space = 2


# ---------------------------------------------------------------------------
# Vector polynomial decompositions on a cell.
#
# Vector monomial layout: index = comp * n_scalar + scalar_index, i.e. the
# field m_s e_comp.  [P_n]^3 splits as grad(P_{n+1}) (+) xhat /\ [P_{n-1}]^3,
# with xhat the scaled cell coordinate; the cross factor has the explicit
# independent spanning set built below.
# ---------------------------------------------------------------------------


def cross_field_descriptors(n: int) -> list[tuple[int, tuple[int, int, int]]]:
    r"""Descriptors (component i, alpha) of an independent basis of
    xhat /\ [P_{n-1}]^3 as fields of degree <= n, in the graded order of alpha.

    Candidates xhat /\ (m_a e_i) for |a| <= n-1 span the space; the kernel of
    p -> xhat /\ p is xhat * P_{n-2} and is transversal to the subset where
    i = z is kept only for alpha_z = 0.  Size: 3*pi_{n-1,3} - pi_{n-2,3}.
    """
    return [(i, a) for a in multi_indices(n - 1, 3) for i in range(3) if i < 2 or a[2] == 0]


def cross_dimension(n: int) -> int:
    r"""dim(xhat /\ [P_{n-1}]^3) = 3 pi_{n-1,3} - pi_{n-2,3}."""
    return 3 * dim_poly(n - 1, 3) - dim_poly(n - 2, 3)


# the two terms of xhat /\ (m e_i), row i: (component, variable whose
# exponent the term raises, sign); xhat /\ (m e_x) = (0, m*zhat, -m*yhat)
_CROSS_TERMS = np.array([[(1, 2, 1), (2, 1, -1)], [(0, 2, -1), (2, 0, 1)], [(0, 1, 1), (1, 0, -1)]])


def cross_coefficients(n: int, target_degree: int) -> np.ndarray:
    """Coefficient columns of the cross basis over vector monomials of degree
    <= target_degree (>= n).  Shape (3*pi_target, n_cross)."""
    descr = cross_field_descriptors(n)
    comp, var, sign = _CROSS_TERMS[[i for i, _ in descr]].reshape(-1, 2, 3).transpose(2, 0, 1)
    raised = np.array([a for _, a in descr], dtype=int).reshape(-1, 1, 3) + np.eye(3, dtype=int)[var]
    ns = dim_poly(target_degree, 3)
    C = np.zeros((3 * ns, len(descr)))
    C[comp * ns + _positions(raised, target_degree), np.arange(len(descr))[:, None]] = sign
    return C


def gradient_coefficients(k: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Coefficient columns of h*grad(m_s) for scalar monomials 1 <= |s| <= k+1,
    over vector monomials of degree <= k: the rows of degree <= k and the
    columns of degree >= 1 of the degree-(k+1) derivative matrices, stacked
    by component.  Returns (matrix, source indices)."""
    ns = dim_poly(k, 3)
    return (np.vstack([D[:ns, 1:] for D in _derivative_matrices(k + 1, 3)]),
            multi_indices(k + 1, 3)[1:])


@dataclass(frozen=True)
class DecompBasis:
    """Basis of [P_k]^3 adapted to the gradient/cross splitting.

    T columns: [ h*grad(P_{k+1}\\P_0) | cross deg <= k-3 | cross deg k-2..k-1 ],
    expressed over vector monomials of degree <= k.  T is invertible and does
    not depend on the cell (scaled coordinates cancel the geometry).
    """

    T: np.ndarray
    n_grad: int
    n_cross_low: int
    n_cross_high: int
    grad_sources: tuple             # the multi-indices s of the gradient columns h*grad(m_s)
    Tinv_T: np.ndarray              # (T^T)^-1

    @property
    def slices(self):
        lo, hi = self.n_grad, self.n_grad + self.n_cross_low
        return slice(0, lo), slice(lo, hi), slice(hi, hi + self.n_cross_high)


@lru_cache(maxsize=None)
def decomp_basis(k: int) -> DecompBasis:
    """The decomposition basis of [P_k]^3, with read-only T and Tinv_T: the
    cross descriptors come in the graded order of their multi-indices, so
    those of degree <= k-3 lead."""
    G, sources = gradient_coefficients(k)
    C = cross_coefficients(k, k)
    T = np.hstack([G, C])
    if T.shape[0] != T.shape[1]:
        raise ValueError(f"decomposition basis of [P_{k}]^3 is not square: {T.shape}")
    n_low = cross_dimension(k - 2)
    Tinv_T = np.linalg.inv(T.T)
    T.flags.writeable = Tinv_T.flags.writeable = False
    return DecompBasis(T=T, n_grad=G.shape[1], n_cross_low=n_low, n_cross_high=C.shape[1] - n_low,
                       grad_sources=sources, Tinv_T=Tinv_T)
