"""Every multi-index table is an array expression over the position array of
`polynomials` and must equal, bit for bit, in shape, values and dtype kind,
the table that a loop over the multi-indices through a dict of positions
builds (the loop builders in helpers.py).  Equal tables keep every
projection, operator and LU fill unchanged.  Every cached table is
read-only, since all its callers share it."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import helpers
import vemflow
from vemflow import projection
from vemflow import quadrature as quad
from vemflow.dofspace import build_dof_maps
from vemflow.meshing import generate_structured_cubes, generate_tetra_mesh
from vemflow.polynomials import (
    MonomialBasis2,
    MonomialBasis3,
    _derivative_matrices,
    cross_coefficients,
    decomp_basis,
    gradient_coefficients,
    multi_indices,
    product_positions,
)


def _same(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert got.dtype.kind == ref.dtype.kind
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multi_indices(d):
    for n in range(-1, 13):
        assert multi_indices(n, d) == helpers.multi_indices_loop(n, d)


@pytest.mark.parametrize("basis", [MonomialBasis2, MonomialBasis3])
def test_derivative_matrices_and_positions(basis):
    d = basis.dim_space
    for n in range(12):
        for got, ref in zip(_derivative_matrices(n, d), helpers.derivative_matrices_loop(n, d), strict=True):
            _same(got, ref)
        b = basis(n, np.zeros(d), 1.0)
        lookup = helpers._index_lookup(n, d)
        assert [b.index_of(a) for a in lookup] == list(lookup.values())
        _same(b.index_of(np.array(list(lookup))), np.arange(len(lookup)))
        if n:
            with pytest.raises(ValueError, match="degree"):
                b.index_of((n,) + (1,) + (0,) * (d - 2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decomposition_gradient_and_cross(k):
    dec, ref = decomp_basis(k), helpers.decomp_basis_loop(k)
    _same(dec.T, ref.T)
    _same(dec.Tinv_T, ref.Tinv_T)
    assert (dec.n_grad, dec.n_cross_low, dec.n_cross_high) == (ref.n_grad, ref.n_cross_low, ref.n_cross_high)
    assert dec.grad_sources == ref.grad_sources
    G, sources = gradient_coefficients(k)
    G_ref, sources_ref = helpers.gradient_coefficients_loop(k)
    _same(G, G_ref)
    assert list(sources) == sources_ref
    for n in (k - 2, k):
        for target in range(k, 3 * k + 1):
            _same(cross_coefficients(n, target), helpers.cross_coefficients_loop(n, target))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_triple_index(k):
    a_k, a_q = multi_indices(k, 3), multi_indices(k - 1, 3)
    got = product_positions(3 * k - 1, 3, a_k, a_q, a_k)
    _same(got, helpers.triple_index_loop(k))
    assert not got.flags.writeable


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_mass_index_the_kernels_form(k, monkeypatch):
    """The mass indices that the face and cell kernels ask for on a tetra
    and a cube mesh, recorded as they are formed."""
    seen = set()

    def record(*args):
        seen.add(args)
        return product_positions(*args)

    monkeypatch.setattr(projection, "product_positions", record)
    for mesh in (generate_tetra_mesh(1), generate_structured_cubes(1)):
        projection.build_projections(mesh, build_dof_maps(mesh, k)[0])
    assert {(degree, dim) for degree, dim, _, _ in seen} == {(2 * k + 2, 2), (projection.cell_integral_degree(k), 3)}
    for args in seen:
        got = product_positions(*args)
        _same(got, helpers.mass_index_loop(*args))
        assert not got.flags.writeable


@pytest.mark.parametrize("dim,loop", [(3, helpers.reference_tet_rule_loop),
                                      (2, helpers.reference_triangle_rule_loop)])
def test_reference_rules(dim, loop):
    for exactness in range(16):
        for got, ref in zip(quad.reference_simplex_rule(dim, exactness), loop(exactness), strict=True):
            _same(got, ref)


# every lru_cache'd builder in src/, with arguments to call it on
_CACHED_BUILDERS = {
    "cases.make_case": ("ex1-stokes",),
    "dofspace.edge_point_params": (3,),
    "polynomials._derivative_matrices": (3, 3),
    "polynomials._index_array": (3, 3),
    "polynomials.decomp_basis": (3,),
    "polynomials.multi_indices": (3, 3),
    "polynomials.product_positions": (4, 3, multi_indices(2, 3), multi_indices(2, 3)),
    "quadrature.reference_simplex_rule": (3, 5),
}
# the builders whose results hold no array
_NO_ARRAYS = {"cases.make_case", "dofspace.edge_point_params", "polynomials.multi_indices"}


def _arrays(obj):
    """The arrays in a builder's result: in it, its tuples and lists, and the
    fields of its dataclasses."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
    return []


def test_cached_tables_are_read_only():
    """One caller's write into a cached table would change it for every
    later caller: each array an lru_cache'd builder returns refuses writes."""
    found = {}
    for info in pkgutil.iter_modules(vemflow.__path__):
        module = importlib.import_module(f"vemflow.{info.name}")
        found |= {f"{info.name}.{name}": obj for name, obj in vars(module).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert set(found) == set(_CACHED_BUILDERS)
    for name, args in _CACHED_BUILDERS.items():
        arrays = _arrays(found[name](*args))
        assert bool(arrays) != (name in _NO_ARRAYS), name
        for a in arrays:
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[...] = a
