"""Numerical verification of the discrete complex structure: dimension
identities, divergence-operator rank and kernel, and exact divergence-
freeness of computed velocities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dofspace import ComplexDims, DofMapV, build_dof_maps, complex_dims
from .forms import divergence_matrix
from .meshing import PolyMesh
from .projection import CellProjections

DENSE_DOF_CAP = 3000
SV_RTOL = 1e-9


@dataclass
class RankResult:
    rank: int
    expected_rank: int
    kernel_dim: int
    expected_kernel_dim: int
    conclusive: bool
    gap: float

    @property
    def passed(self) -> bool:
        return self.conclusive and self.rank == self.expected_rank \
            and self.kernel_dim == self.expected_kernel_dim


@dataclass
class ComplexReport:
    dims: ComplexDims
    exactness_applicable: bool
    exactness_ok: bool | None
    rank: RankResult | None = None
    max_div_coefficient: float | None = None
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
                "conclusive": self.rank.conclusive, "passed": self.rank.passed,
            }
        if self.max_div_coefficient is not None:
            out["max_div_coefficient"] = self.max_div_coefficient
        return out


def check_exactness_dims(mesh: PolyMesh, k: int) -> ComplexReport:
    """Alternating-sum identity of the complex dimensions; reported as not
    applicable on non-contractible meshes (Euler number != 1)."""
    dims = complex_dims(mesh, k)
    if dims.euler != 1:
        return ComplexReport(dims, exactness_applicable=False, exactness_ok=None,
                             notes=[f"mesh not contractible: Euler number {dims.euler}"])
    return ComplexReport(dims, exactness_applicable=True, exactness_ok=dims.alternating_sum == 0)


def assemble_divergence(mesh: PolyMesh, k: int, maps=None) -> np.ndarray:
    """Dense global divergence pairing (dim Q x dim V), no boundary
    conditions; built from the DoF map alone, without projections."""
    mapv, _ = maps or build_dof_maps(mesh, k)
    return divergence_matrix(mesh, mapv).toarray()


def check_div_surjectivity(mesh: PolyMesh, k: int, maps=None,
                           cap: int = DENSE_DOF_CAP) -> ComplexReport:
    """Rank of the assembled divergence operator by dense SVD: the rank must
    equal dim Q_h and the kernel dimension the closed-form dim Z_h."""
    report = check_exactness_dims(mesh, k)
    dims = report.dims
    if dims.dim_V > cap:
        raise ValueError(f"dense SVD refused: {dims.dim_V} DoFs exceed cap {cap}")
    B = assemble_divergence(mesh, k, maps=maps)
    # scale-free rows: each pressure-monomial row is normalized
    scale = np.linalg.norm(B, axis=1)
    scale[scale == 0] = 1.0
    sv = np.linalg.svd(B / scale[:, None], compute_uv=False)
    tol = SV_RTOL * sv[0]
    rank = int(np.sum(sv > tol))
    if rank < len(sv):
        gap = sv[rank - 1] / max(sv[rank], 1e-300)
    else:
        gap = np.inf
    conclusive = gap >= 10.0
    report.rank = RankResult(
        rank=rank, expected_rank=dims.dim_Q,
        kernel_dim=dims.dim_V - rank, expected_kernel_dim=dims.dim_Z,
        conclusive=conclusive, gap=float(gap),
    )
    if not conclusive:
        report.notes.append(f"singular-value gap {gap:.2e} below 10x threshold: inconclusive")
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
