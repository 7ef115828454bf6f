r"""Degree-of-freedom layouts for the velocity/pressure pair, the reduced
pair, dimension formulas of the four complex spaces, and interpolation of
analytic fields into DoF vectors.

Velocity DoFs per cell, in local order:
  family 1: values at the cell vertices (3 per vertex),
  family 2: values at the k-1 internal Gauss-Lobatto points of each edge,
  family 3: face moments of the normal and the two tangential components
            against face monomials of degree <= k-2, divided by the face area,
  family 4: cell moments against the independent cross basis of
            xhat /\ [P_{k-3}]^3, divided by the cell volume,
  family 5: cell moments of div v against scaled monomials of degree 1..k-1,
            divided by the cell volume.
Shared entities are numbered once; moment scalings keep DoF values O(1).

The velocity map lays the DoFs out per group of cells of one local layout,
whose vertex, edge and face tables in local order the group keeps for the
cell projections, and owns the CSC pattern of every matrix summed from cell
blocks, built once from the entity pairs that share a cell, with each
group's slots in it.  It
also keeps, as `operators`, the operators that `forms.assemble` last built
on it with the key they were built for (see `forms`), and so the slot of
the Stokes factor that `flow` fills: none of them outlives the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from . import quadrature as quad
from .meshing import PolyMesh, read_only
from .polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    cross_coefficients,
    cross_dimension,
    dim_poly,
)

SUPPORTED_DEGREES = (2, 3, 4)

# barycentre coordinates closer than this times the extent of their part
# are one layer to the nested dissection: round-off, not geometry
LAYER_TOL = 1e-9

# cells per block of every stacked per-cell build: the slot build here, the
# cell projection kernel, the scatter of A1 and the convection kernel, so
# that their temporaries do not grow with a group
CELL_BLOCK = 32


@lru_cache(maxsize=None)
def edge_point_params(k: int) -> tuple[float, ...]:
    """Internal Gauss-Lobatto nodes of the (k+1)-point rule, on (0, 1)."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    interior = np.sort(legendre.legroots(legendre.legder(coef)))
    return tuple((interior + 1.0) / 2.0)


def cell_blocks(n: int) -> list[slice]:
    """The blocks of at most CELL_BLOCK of n cells, in turn."""
    return [slice(s, s + CELL_BLOCK) for s in range(0, n, CELL_BLOCK)]


def cell_basis(mesh: PolyMesh, c: int, degree: int) -> MonomialBasis3:
    return MonomialBasis3(degree, mesh.cell_stack.barycenter[c], mesh.cell_stack.h[c])


@dataclass
class CellDofLayout:
    """Index arrays into a cell's local DoF vector."""

    vertex: np.ndarray    # (l_V, 3)
    edge: np.ndarray      # (l_e, k-1, 3)
    face: np.ndarray      # (l_f, 3, pi_{k-2,2}); middle axis: n, tau1, tau2
    d4: np.ndarray        # (n4,)
    d5: np.ndarray        # (n5,)
    ndof: int


@dataclass
class DofGroup:
    """The cells of one `PolyMesh.cell_groups` group, which share one local
    layout, with their entities, global DoFs and blocks' slots in the pattern."""

    cells: np.ndarray            # (nc,) cell ids
    vertices: np.ndarray         # (nc, l_V) vertex ids, in local order: ascending
    edges: np.ndarray            # (nc, l_e) edge ids, in local order: ascending
    faces: np.ndarray            # (nc, l_f) face ids, in local order: the cell's
    dofs: np.ndarray             # (nc, ndof) global velocity DoFs, in local order
    layout: CellDofLayout        # shared by the group's cells
    slots: np.ndarray            # (nc, ndof, ndof) int32: local entry (i, j) -> CSC data index


@dataclass
class DofMapV:
    """Global numbering of the five velocity DoF families, and the CSC
    pattern (`indptr`, `indices`) of every matrix summed from cell blocks."""

    k: int
    ndof: int
    n_edge_pts: int
    n_face_moms: int
    n_d4: int
    n_d5: int
    offsets: dict
    entity_size: np.ndarray      # DoFs of each entity: vertices, edges, faces, cells
    groups: list[DofGroup]
    cell_global: list[np.ndarray]   # per cell: a view of its group's `dofs` row
    layouts: list[CellDofLayout]    # per cell: its group's layout
    indptr: np.ndarray           # int32, symmetric pattern: CSR and CSC alike
    indices: np.ndarray          # int32
    dirichlet: np.ndarray        # bool mask over global velocity DoFs
    edge_points: np.ndarray      # (L_e, k-1, 3) physical coordinates
    # (key, operators) of the last `forms.assemble` on the map, or None
    operators: tuple | None = field(default=None, repr=False, compare=False)

    def counts_by_family(self) -> dict:
        return {
            "vertex_values": self.offsets["edge"],
            "edge_values": self.offsets["face"] - self.offsets["edge"],
            "face_moments": self.offsets["cell"] - self.offsets["face"],
            "cross_moments": self.n_d4 * len(self.cell_global),
            "divergence_moments": self.n_d5 * len(self.cell_global),
        }


@dataclass
class DofMapQ:
    """Per-cell pressure moments against scaled monomials of degree <= k-1."""

    k: int
    n_per_cell: int
    ndof: int


def build_dof_maps(mesh: PolyMesh, k: int) -> tuple[DofMapV, DofMapQ]:
    """The global DoF numbering, group by group of `mesh.cell_groups()`, and
    the CSC pattern of the cell-block matrices with each group's slots."""
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree k={k}; supported: {SUPPORTED_DEGREES}")
    n_ep = k - 1
    n_fm = dim_poly(k - 2, 2)
    n_d4 = cross_dimension(k - 2)
    n_d5 = dim_poly(k - 1, 3) - 1

    # the entities in global order: vertices, edges, faces, cells; each
    # one's DoFs are a contiguous block, and the blocks follow that order
    counts = (mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells)
    first = np.cumsum((0,) + counts)            # first entity id of each kind
    size = np.repeat([3, 3 * n_ep, 3 * n_fm, n_d4 + n_d5], counts)
    start = np.cumsum(size) - size
    offsets = dict(zip(("vertex", "edge", "face", "cell"), start[first[:4]].tolist()))

    a, b = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    edge_points = a[:, None, :] + np.array(edge_point_params(k))[None, :, None] * (b - a)[:, None, :]

    # per group: the cells' entities in local order (sorted vertices, sorted
    # edges, faces in cell order, the cell), and their DoFs in that order
    groups, ents = [], []
    for cells in mesh.cell_groups():
        tables = [np.array([mesh.cell_vertices[c] for c in cells]),
                  np.array([mesh.cell_edges[c] for c in cells]), np.array([mesh.cells[c][0] for c in cells])]
        nv, ne, nf = (t.shape[1] for t in tables)
        ent = np.concatenate([t + f for t, f in zip(tables, first)] + [first[3] + cells[:, None]], axis=1)
        pos = np.cumsum([0, 3 * nv, 3 * n_ep * ne, 3 * n_fm * nf, n_d4, n_d5])
        layout = CellDofLayout(np.arange(pos[1]).reshape(nv, 3),
                               np.arange(pos[1], pos[2]).reshape(ne, n_ep, 3),
                               np.arange(pos[2], pos[3]).reshape(nf, 3, n_fm),
                               np.arange(pos[3], pos[4]), np.arange(pos[4], pos[5]), int(pos[5]))
        lsize = size[ent[0]]
        local = np.repeat(np.arange(len(lsize)), lsize)             # entity of each local DoF
        offset = np.arange(pos[5]) - (np.cumsum(lsize) - lsize)[local]    # and its place in the block
        # in C order: the convection kernel's sums follow the memory order of u[dofs]
        groups.append((cells, *tables, np.ascontiguousarray(start[ent][:, local] + offset), layout))
        ents.append((ent, local, offset))

    indptr, indices, slots = _cell_pattern(ents, [dofs for *_, dofs, _ in groups], size, start)
    groups = [DofGroup(*g, g_slots) for g, g_slots in zip(groups, slots)]
    # read-only, and so the cells' views of the groups' rows; every matrix on the pattern shares it
    boundary = np.concatenate([mesh.boundary_vertex, mesh.boundary_edge, mesh.boundary_face,
                               np.zeros(mesh.n_cells, dtype=bool)])
    dirichlet = np.repeat(boundary, size)
    read_only(size, edge_points, dirichlet, indptr, indices,
              *(a for g in groups for a in (*vars(g).values(), *vars(g.layout).values())))
    of_cell = {c: (dofs, g.layout) for g in groups for c, dofs in zip(g.cells.tolist(), g.dofs)}
    cell_global, layouts = (list(x) for x in zip(*(of_cell[c] for c in range(mesh.n_cells))))

    mapv = DofMapV(
        k=k, ndof=int(size.sum()), n_edge_pts=n_ep, n_face_moms=n_fm, n_d4=n_d4, n_d5=n_d5,
        offsets=offsets, entity_size=size, groups=groups, cell_global=cell_global,
        layouts=layouts, indptr=indptr, indices=indices,
        dirichlet=dirichlet, edge_points=edge_points,
    )
    mapq = DofMapQ(k=k, n_per_cell=dim_poly(k - 1, 3), ndof=dim_poly(k - 1, 3) * mesh.n_cells)
    return mapv, mapq


def build_reduced_maps(mapv: DofMapV) -> np.ndarray:
    """The velocity DoFs of the reduced pair, as a mask over the full ones:
    all but the divergence moments (family 5).  Its pressures are one
    constant per cell."""
    keep = np.ones(mapv.ndof, dtype=bool)
    # the cell blocks close the numbering: family 4, then family 5, per cell
    keep[mapv.offsets["cell"]:].reshape(len(mapv.cell_global), -1)[:, mapv.n_d4:] = False
    return keep


def _cell_pattern(ents: list, dofs: list[np.ndarray], size: np.ndarray,
                  start: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The CSR pattern (indptr, indices) of the DoF pairs that share a cell,
    from the entity pairs that share one, and each group's slots.  Entity
    pair (a, b) stands for the block of a's and b's DoF pairs: the DoF rows
    of a share one column list, the blocks of a's entity pairs in turn.
    Per group, `ents` holds the cells' entities, and each local DoF's entity
    and offset in that entity's block; `dofs` holds the cells' DoFs."""
    n = len(size)
    keys = np.concatenate([(ent[:, :, None] * n + ent[:, None, :]).ravel() for ent, _, _ in ents])
    keys, pair = np.unique(keys, return_inverse=True)
    row, col = np.divmod(keys, n)
    width = np.bincount(row, size[col], minlength=n).astype(np.int64)   # of each column list
    row_start = np.cumsum(width) - width
    place = np.cumsum(size[col]) - size[col]               # of each block in the lists in turn
    lists = np.repeat(start[col] - place, size[col]) + np.arange(width.sum())
    row_len = np.repeat(width, size)
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    indices = lists[np.repeat(np.repeat(row_start, size) - indptr[:-1], row_len) + np.arange(indptr[-1])]
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indptr, col_offset = indptr.astype(idx), (place - row_start[row]).astype(idx)
    # the pattern is symmetric, so the CSC place of local entry (i, j) is the
    # CSR place of (j, i): j's row start, the place of the entity pair in
    # that row's column list, and i's offset in its block
    pairs = np.split(pair, np.cumsum([ent.size * ent.shape[1] for ent, _, _ in ents])[:-1])
    slots = []
    for (ent, local, offset), d, pp in zip(ents, dofs, pairs):
        pp = pp.reshape(-1, ent.shape[1], ent.shape[1]).transpose(0, 2, 1)
        offset = offset.astype(idx)[:, None]
        slots.append(np.empty((len(d), len(local), len(local)), dtype=idx))
        for b in cell_blocks(len(d)):
            slots[-1][b] = indptr[d[b]][:, None, :] + col_offset[pp[b]][:, local][:, :, local] + offset
    return indptr, indices.astype(idx), slots


def nested_dissection(centres: np.ndarray, cells: np.ndarray, unknowns: np.ndarray,
                      n: int) -> np.ndarray:
    """Geometric nested-dissection positions (George, SIAM J. Numer. Anal.
    1973) of n unknowns, where unknown unknowns[i] lies on cell cells[i].

    The cells are bisected recursively along the longest axis of their
    bounding box, down to single cells, at the gap between two distinct
    barycentre coordinates nearest the median (the first of two equally
    near), so that a layer of cells with one coordinate, as in a block of
    cubes, stays in one part.  A gap counts only in the middle half of the
    part, else the cut is at the median: no part has more than 3/4 of its
    parent's cells, and the tree's depth stays within log_{4/3} of the
    cell count.  An unknown goes with the smallest part that holds
    all its cells, which comes after both its halves.  Returns one sort key
    per unknown: sorting by it orders the parts in post-order.  Every
    unknown needs a cell."""
    nc = len(centres)
    path = np.empty(nc, dtype=np.int64)    # a cell's path in the bisection tree
    level = np.empty(nc, dtype=np.int64)   # its length
    stack = [(np.arange(nc), 0, 0)]
    while stack:
        part, p, d = stack.pop()
        if len(part) == 1:
            path[part], level[part] = p, d
            continue
        x = centres[part]
        extent = np.ptp(x, axis=0)
        x = x[:, np.argmax(extent)]
        order = np.argsort(x, kind="stable")
        part = part[order]
        gaps = np.nonzero(np.diff(x[order]) > LAYER_TOL * extent.max())[0] + 1
        off = np.abs(2 * gaps - len(part))
        half = gaps[np.argmin(off)] if len(gaps) and off.min() <= len(part) / 2 else len(part) // 2
        stack += [(part[:half], 2 * p, d + 1), (part[half:], 2 * p + 1, d + 1)]
    depth = max(1, int(level.max()))
    code = path << (depth - level)         # the path, left-aligned
    # the smallest part holding all cells of an unknown: the common prefix of
    # the smallest and the largest path, or the cell itself when it is one
    lo = np.full(n, np.int64(1) << depth)
    hi = np.zeros(n, dtype=np.int64)
    lvl = np.zeros(n, dtype=np.int64)
    np.minimum.at(lo, unknowns, code[cells])
    np.maximum.at(hi, unknowns, code[cells])
    np.maximum.at(lvl, unknowns, level[cells])
    common = np.minimum(depth - np.frexp((lo ^ hi).astype(float))[1], lvl)
    shift = depth - common
    # post-order: a part sorts by its last path, after the deeper parts ending there
    last = ((lo >> shift) << shift) | ((np.int64(1) << shift) - 1)
    return last * (depth + 1) + shift


# ---------------------------------------------------------------------------
# Interpolation of analytic fields
# ---------------------------------------------------------------------------


def _as_field(u):
    """Wrap a callable so it maps (n,3) points to an (n,3) array."""
    def wrapped(pts):
        vals = np.asarray(u(np.atleast_2d(pts)), dtype=float)
        return vals.reshape(-1, 3)
    return wrapped


def interpolate_velocity(mesh: PolyMesh, mapv: DofMapV, u, div_u=None) -> np.ndarray:
    """DoF vector of the interpolant of the analytic field u.

    u maps (n, 3) points to (n, 3) values; div_u maps points to scalars and
    is required whenever the divergence-moment family is present (k >= 2).
    """
    k = mapv.k
    if div_u is None and mapv.n_d5 > 0:
        raise ValueError("div_u is required to interpolate the divergence moments")
    u = _as_field(u)
    dof = np.zeros(mapv.ndof)
    dof[: mapv.offsets["edge"]] = u(mesh.vertices).ravel()
    dof[mapv.offsets["edge"]: mapv.offsets["face"]] = u(
        mapv.edge_points.reshape(-1, 3)
    ).ravel()

    _face_moments(mesh, mapv, u, np.arange(mesh.n_faces), dof)

    # cell moments: against the cross basis of degree k-2 (family 4) and the
    # monomials of degree 1..k-1 (family 5), divided by the volume
    n4, blk = mapv.n_d4, mapv.n_d4 + mapv.n_d5
    ns = dim_poly(k - 2, 3)
    C = cross_coefficients(k - 2, k - 2).reshape(3, ns, n4)
    for ci in range(mesh.n_cells):
        rule = quad.cell_quadrature(mesh, ci, 2 * k + 2)
        phi = cell_basis(mesh, ci, k - 1).eval(rule.points)
        dv = np.asarray(div_u(rule.points), dtype=float).reshape(-1)
        base = mapv.offsets["cell"] + blk * ci
        dof[base: base + n4] = np.einsum("q,qc,qs,csj->j", rule.weights, u(rule.points), phi[:, :ns], C)
        dof[base + n4: base + blk] = (phi.T @ (rule.weights * dv))[1:]
        dof[base: base + blk] /= mesh.cell_stack.volume[ci]
    return dof


def _face_moments(mesh: PolyMesh, mapv: DofMapV, u, faces: np.ndarray, dof: np.ndarray) -> None:
    """Write into `dof` the face moments of the field u on `faces`: its
    normal and tangential components against the face monomials of degree
    <= k-2, divided by the area.  One exactness-(2k+2) rule and one
    evaluation of u per group of faces with one vertex count."""
    n_fm = mapv.n_face_moms
    fs = mesh.face_stack
    unit = MonomialBasis2(mapv.k - 2, np.zeros(2), 1.0)    # on points scaled by h_f
    for grp in mesh.face_groups(faces):
        pts2, pts3, w = quad.face_quadrature(mesh, grp, 2 * mapv.k + 2)
        phi = unit.eval((pts2 / fs.h[grp, None, None]).reshape(-1, 2)).reshape(len(grp), 1, -1, n_fm)
        # normal and tangential components: one matrix-vector product per
        # face and direction
        frame = np.stack([fs.normal[grp], fs.tau1[grp], fs.tau2[grp]], axis=1)[..., None]
        comp = (u(pts3.reshape(-1, 3)).reshape(len(grp), 1, -1, 3) @ frame)[..., 0]  # (nf, 3, nq)
        moms = (phi * (w[:, None] * comp)[..., None]).sum(axis=2) / fs.area[grp, None, None]
        dof[mapv.offsets["face"] + 3 * n_fm * grp[:, None] + np.arange(3 * n_fm)] = \
            moms.reshape(len(grp), -1)


def interpolate_boundary(mesh: PolyMesh, mapv: DofMapV, g) -> np.ndarray:
    """DoF values of boundary data g on the Dirichlet-masked entries only
    (vertex values, edge values and face moments of boundary entities), with
    one evaluation of g on all boundary vertices and one on all boundary
    edge points."""
    g = _as_field(g)
    dof = np.zeros(mapv.ndof)
    bv = np.flatnonzero(mesh.boundary_vertex)
    dof[3 * bv[:, None] + np.arange(3)] = g(mesh.vertices[bv])
    be = np.flatnonzero(mesh.boundary_edge)
    n_ep = mapv.n_edge_pts
    dof[mapv.offsets["edge"] + 3 * n_ep * be[:, None] + np.arange(3 * n_ep)] = \
        g(mapv.edge_points[be].reshape(-1, 3)).reshape(len(be), -1)
    _face_moments(mesh, mapv, g, np.flatnonzero(mesh.boundary_face), dof)
    return dof


# ---------------------------------------------------------------------------
# Dimensions of the discrete complex
# ---------------------------------------------------------------------------


@dataclass
class ComplexDims:
    k: int
    dim_W: int
    dim_Sigma: int
    dim_V: int
    dim_Q: int
    dim_Z: int
    euler: int
    alternating_sum: int


def complex_dims(mesh: PolyMesh, k: int) -> ComplexDims:
    """Closed-form dimensions of the four discrete spaces and the kernel."""
    lv, le, lf, lp = mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells
    p22 = dim_poly(k - 2, 2)
    p23 = dim_poly(k - 2, 3)
    p13 = dim_poly(k - 1, 3)
    dim_w = lv
    dim_sigma = 3 * lv + (3 * k - 2) * le + (3 * p22 - 1) * lf + (3 * p23 - p13 + 1) * lp
    dim_v = 3 * lv + 3 * (k - 1) * le + 3 * p22 * lf + 3 * p23 * lp
    dim_q = p13 * lp
    dim_z = 3 * lv + 3 * (k - 1) * le + 3 * p22 * lf + (3 * p23 - p13) * lp
    euler = mesh.euler_number()
    alt = 1 - dim_w + dim_sigma - dim_v + dim_q
    return ComplexDims(k, dim_w, dim_sigma, dim_v, dim_q, dim_z, euler, alt)


def dof_summary(mesh: PolyMesh, mapv: DofMapV, mapq: DofMapQ) -> dict:
    """JSON-ready summary of DoF counts per family and per entity type."""
    return {
        "k": mapv.k,
        "entities": {
            "vertices": mesh.n_vertices,
            "edges": mesh.n_edges,
            "faces": mesh.n_faces,
            "cells": mesh.n_cells,
        },
        "velocity": {
            "total": mapv.ndof,
            "per_family": mapv.counts_by_family(),
            "per_entity": {
                "vertex": 3,
                "edge": 3 * mapv.n_edge_pts,
                "face": 3 * mapv.n_face_moms,
                "cell": mapv.n_d4 + mapv.n_d5,
            },
            "dirichlet": int(mapv.dirichlet.sum()),
        },
        "pressure": {"total": mapq.ndof, "per_cell": mapq.n_per_cell},
    }
