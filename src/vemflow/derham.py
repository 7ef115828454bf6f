"""Numerical verification of the discrete complex structure: dimension
identities, the rank and kernel of the divergence operator, and exact
divergence-freeness of computed velocities.

The rank of the divergence pairing B (`forms.divergence_matrix`) is
certified exactly from its structure, in O(nnz) and with no tolerance.  Each
divergence-moment row (b >= 1) holds one nonzero, |P|, in a column that no
other row touches, so these rows add n_cells (pq - 1) to the rank.  The
constant rows B[::pq] are a signed cell-face incidence with the columns
scaled by |f|: an interior face holds two entries that cancel exactly, a
boundary face one.  Their rank is n_cells minus the number of connected
components of the cells, linked across interior faces, that hold no
boundary face.  A B of any other structure is given no rank."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .dofspace import ComplexDims, DofMapV, build_dof_maps, complex_dims
from .forms import divergence_matrix
from .meshing import PolyMesh
from .projection import CellProjections


@dataclass
class RankResult:
    rank: int | None                 # None: B is not of the certified structure
    expected_rank: int
    kernel_dim: int | None
    expected_kernel_dim: int

    @property
    def passed(self) -> bool:
        return self.rank == self.expected_rank and self.kernel_dim == self.expected_kernel_dim


@dataclass
class ComplexReport:
    dims: ComplexDims
    exactness_applicable: bool
    exactness_ok: bool | None
    rank: RankResult | None = None
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "k": self.dims.k,
            "dims": {
                "W": self.dims.dim_W, "Sigma": self.dims.dim_Sigma,
                "V": self.dims.dim_V, "Q": self.dims.dim_Q, "Z": self.dims.dim_Z,
            },
            "euler": self.dims.euler,
            "alternating_sum": self.dims.alternating_sum,
            "exactness_applicable": self.exactness_applicable,
            "exactness_ok": self.exactness_ok,
            "notes": self.notes,
        }
        if self.rank is not None:
            out["rank"] = {
                "rank_B": self.rank.rank, "expected": self.rank.expected_rank,
                "kernel_dim": self.rank.kernel_dim,
                "expected_kernel_dim": self.rank.expected_kernel_dim,
                "passed": self.rank.passed,
            }
        return out


def check_exactness_dims(mesh: PolyMesh, k: int) -> ComplexReport:
    """Alternating-sum identity of the complex dimensions; reported as not
    applicable on non-contractible meshes (Euler number != 1)."""
    dims = complex_dims(mesh, k)
    if dims.euler != 1:
        return ComplexReport(dims, exactness_applicable=False, exactness_ok=None,
                             notes=[f"mesh not contractible: Euler number {dims.euler}"])
    return ComplexReport(dims, exactness_applicable=True, exactness_ok=dims.alternating_sum == 0)


def certified_rank(B: sp.spmatrix, pq: int) -> int | None:
    """Exact rank of a divergence pairing with pq rows per cell, read from
    its structure (see the module docstring); None for any other structure."""
    B = sp.csc_matrix(B, copy=True)
    B.sum_duplicates()
    rows, nq = B.indices, B.shape[0]
    col_nnz = np.repeat(np.diff(B.indptr), np.diff(B.indptr))      # per entry
    moment = rows % pq != 0
    pairs = col_nnz == 2
    if (np.any(B.data == 0) or np.any(col_nnz > 2) or np.any(col_nnz[moment] != 1)
            or np.any(np.bincount(rows, minlength=nq).reshape(-1, pq)[:, 1:] != 1)
            or np.any(B.data[pairs].reshape(-1, 2).sum(axis=1) != 0)):
        return None
    nc = nq // pq
    cells = rows // pq
    links = cells[pairs].reshape(-1, 2).T
    n_comp, label = connected_components(
        sp.csr_matrix((np.ones(links.shape[1]), links), shape=(nc, nc)), directed=False)
    grounded = np.zeros(n_comp, dtype=bool)
    grounded[label[cells[(col_nnz == 1) & ~moment]]] = True
    return nq - int(np.count_nonzero(~grounded))


def check_div_surjectivity(mesh: PolyMesh, k: int) -> ComplexReport:
    """Certified rank of the assembled divergence operator: the rank must
    equal dim Q_h and the kernel dimension the closed-form dim Z_h."""
    report = check_exactness_dims(mesh, k)
    dims = report.dims
    mapv, mapq = build_dof_maps(mesh, k)
    rank = certified_rank(divergence_matrix(mesh, mapv), mapq.n_per_cell)
    if rank is None:
        report.notes.append("B is not a signed cell-face incidence plus |P| I: no rank certified")
    report.rank = RankResult(rank, dims.dim_Q, None if rank is None else dims.dim_V - rank, dims.dim_Z)
    return report


def check_divfree(u: np.ndarray, mesh: PolyMesh, mapv: DofMapV,
                  projs: list[CellProjections]) -> float:
    """Max over cells of the cell-scale norm of the reconstructed divergence:
    the coefficient vector measured in the mass-weighted (L2) norm and
    divided by sqrt(|P|), i.e. the root-mean-square value of div u_h on the
    cell.  The raw sup norm of the coefficients would amplify solver
    round-off by the mass-matrix conditioning on stretched cells."""
    worst = 0.0
    for ci, proj in enumerate(projs):
        coef = proj.div @ u[mapv.cell_global[ci]]
        rms = np.sqrt(max(float(coef @ (proj.Hq @ coef)), 0.0) / proj.vol)
        worst = max(worst, rms)
    return worst
