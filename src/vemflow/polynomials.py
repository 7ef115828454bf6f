"""Scaled monomial bases and polynomial-space bookkeeping on cells and faces.

All local polynomial algebra runs in scaled coordinates (x - center)/scale so
that basis values stay O(1) on the owning mesh entity.  Multi-indices are
ordered graded-lexicographically, which fixes every matrix layout in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np


def dim_poly(n: int, d: int) -> int:
    """Dimension of polynomials of degree <= n in d variables; 0 for n < 0."""
    if n < 0:
        return 0
    return comb(n + d, d)


@lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Graded-lexicographic multi-indices with |alpha| <= n in d variables."""
    out: list[tuple[int, ...]] = []
    for total in range(n + 1):
        out.extend(_fixed_degree(total, d))
    return tuple(out)


def _fixed_degree(total: int, d: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _fixed_degree(total - first, d - 1):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _index_lookup(n: int, d: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(n, d))}


@lru_cache(maxsize=None)
def _derivative_matrices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Unscaled derivative matrices D_j with (D_j c) the coefficients of
    d/dxhat_j of the polynomial with coefficients c (same degree-n basis)."""
    alphas = multi_indices(n, d)
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


class _MonomialBasis:
    """Shared machinery for scaled monomial bases in d variables."""

    dim_space: int

    def __init__(self, degree: int, center, scale: float):
        self.degree = int(degree)
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.alphas = np.array(multi_indices(self.degree, self.dim_space), dtype=int)
        self.n = len(self.alphas)

    def local_coords(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.center) / self.scale

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all monomials at physical points -> (npts, n), a
        Fortran-ordered array: the values are built one monomial row at a
        time, which gathers and multiplies contiguous rows."""
        xi = self.local_coords(points).T
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
        D = self.deriv_matrices()
        out = np.empty(vals.shape + (self.dim_space,))
        for j in range(self.dim_space):
            out[:, :, j] = vals @ (D[j] / self.scale)
        return out

    def deriv_matrices(self) -> tuple[np.ndarray, ...]:
        """Coefficient maps of d/dxhat_j (divide by scale for physical d/dx_j)."""
        return _derivative_matrices(self.degree, self.dim_space)

    def index_of(self, alpha) -> int:
        return _index_lookup(self.degree, self.dim_space)[tuple(alpha)]


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
    xhat /\ [P_{n-1}]^3 as fields of degree <= n.

    Candidates xhat /\ (m_a e_i) for |a| <= n-1 span the space; the kernel of
    p -> xhat /\ p is xhat * P_{n-2} and is transversal to the subset where
    i = z is kept only for alpha_z = 0.  Size: 3*pi_{n-1,3} - pi_{n-2,3}.
    """
    if n <= 0:
        return []
    out: list[tuple[int, tuple[int, int, int]]] = []
    for a in multi_indices(n - 1, 3):
        out.append((0, a))
        out.append((1, a))
        if a[2] == 0:
            out.append((2, a))
    return out


def cross_dimension(n: int) -> int:
    r"""dim(xhat /\ [P_{n-1}]^3) = 3 pi_{n-1,3} - pi_{n-2,3}."""
    return 3 * dim_poly(n - 1, 3) - dim_poly(n - 2, 3)


def cross_coefficients(n: int, target_degree: int) -> np.ndarray:
    """Coefficient columns of the cross basis over vector monomials of degree
    <= target_degree (>= n).  Shape (3*pi_target, n_cross)."""
    descr = cross_field_descriptors(n)
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


def gradient_coefficients(k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Coefficient columns of h*grad(m_s) for scalar monomials 1 <= |s| <= k+1,
    over vector monomials of degree <= k.  Returns (matrix, source indices)."""
    scal_hi = multi_indices(k + 1, 3)
    lookup = _index_lookup(k, 3)
    ns = dim_poly(k, 3)
    cols = []
    sources = []
    for s in scal_hi:
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


@dataclass
class DecompBasis:
    """Basis of [P_k]^3 adapted to the gradient/cross splitting.

    T columns: [ h*grad(P_{k+1}\\P_0) | cross deg <= k-3 | cross deg k-2..k-1 ],
    expressed over vector monomials of degree <= k.  T is invertible and does
    not depend on the cell (scaled coordinates cancel the geometry).
    """

    k: int
    T: np.ndarray
    n_grad: int
    n_cross_low: int
    n_cross_high: int
    grad_sources: tuple = ()
    Tinv_T: np.ndarray | None = None

    @property
    def slices(self):
        g = slice(0, self.n_grad)
        lo = slice(self.n_grad, self.n_grad + self.n_cross_low)
        hi = slice(self.n_grad + self.n_cross_low, self.n_grad + self.n_cross_low + self.n_cross_high)
        return g, lo, hi


@lru_cache(maxsize=None)
def decomp_basis(k: int) -> DecompBasis:
    G, sources = gradient_coefficients(k)
    all_cross = cross_field_descriptors(k)
    low = [(i, a) for (i, a) in all_cross if sum(a) <= k - 3]
    high = [(i, a) for (i, a) in all_cross if k - 2 <= sum(a) <= k - 1]
    Call = cross_coefficients(k, k)
    ncols = {d: c for c, d in enumerate(all_cross)}
    Clow = Call[:, [ncols[d] for d in low]] if low else np.zeros((Call.shape[0], 0))
    Chigh = Call[:, [ncols[d] for d in high]]
    T = np.hstack([G, Clow, Chigh])
    ns3 = 3 * dim_poly(k, 3)
    if T.shape != (ns3, ns3):
        raise ValueError(f"decomposition basis of [P_{k}]^3 is not square: {T.shape}")
    dec = DecompBasis(
        k=k, T=T, n_grad=G.shape[1], n_cross_low=Clow.shape[1], n_cross_high=Chigh.shape[1],
        grad_sources=tuple(sources),
    )
    dec.Tinv_T = np.linalg.inv(T.T)
    return dec

