import numpy as np
import pytest

from helpers import (
    cube_monomial_integral,
    edge_quadrature,
    tet_monomial_integral,
    triangle_monomial_integral,
)
from vemflow import quadrature as quad
from vemflow.meshing import MeshError, PolyMesh
from vemflow.polynomials import multi_indices


def test_cell_rule_unit_cube(cube1):
    rule = quad.cell_quadrature(cube1, 0, 2)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-12
    x2 = rule.points[:, 0] ** 2
    assert abs(rule.weights @ x2 - 1.0 / 3.0) < 1e-12


def test_cell_rule_unit_tet(unit_tet):
    rule = quad.cell_quadrature(unit_tet, 0, 3)
    assert abs(np.sum(rule.weights) - 1.0 / 6.0) < 1e-14
    xyz = rule.points[:, 0] * rule.points[:, 1] * rule.points[:, 2]
    assert abs(rule.weights @ xyz - 1.0 / 720.0) < 1e-14


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
def test_cube_exactness_against_closed_forms(cube1, deg):
    rule = quad.cell_quadrature(cube1, 0, deg)
    for a in multi_indices(deg, 3):
        val = rule.weights @ (
            rule.points[:, 0] ** a[0] * rule.points[:, 1] ** a[1] * rule.points[:, 2] ** a[2]
        )
        exact = cube_monomial_integral(*a)
        assert abs(val - exact) <= 1e-11 * max(1.0, abs(exact)), a


@pytest.mark.parametrize("deg", [2, 5, 8, 11])
def test_tet_exactness_against_closed_forms(unit_tet, deg):
    rule = quad.cell_quadrature(unit_tet, 0, deg)
    for a in multi_indices(deg, 3):
        val = rule.weights @ (
            rule.points[:, 0] ** a[0] * rule.points[:, 1] ** a[1] * rule.points[:, 2] ** a[2]
        )
        exact = tet_monomial_integral(*a)
        assert abs(val - exact) <= 1e-11 * max(1.0, abs(exact)), a


def test_random_polynomial_property(cube1, unit_tet):
    rng = np.random.default_rng(5)
    for mesh, oracle in ((cube1, cube_monomial_integral), (unit_tet, tet_monomial_integral)):
        deg = 6
        rule = quad.cell_quadrature(mesh, 0, deg)
        alphas = multi_indices(deg, 3)
        coef = rng.standard_normal(len(alphas))
        vals = np.zeros(len(rule.weights))
        exact = 0.0
        for c, a in zip(coef, alphas):
            vals += c * rule.points[:, 0] ** a[0] * rule.points[:, 1] ** a[1] * rule.points[:, 2] ** a[2]
            exact += c * oracle(*a)
        assert abs(rule.weights @ vals - exact) <= 1e-11 * max(1.0, abs(exact))


def test_face_rule_unit_square(cube1):
    # face 0 of the unit cube is the x=0 square
    (pts2,), (pts3,), (w,) = quad.face_quadrature(cube1, [0], 4)
    assert abs(np.sum(w) - 1.0) < 1e-12
    # second moment of a centered in-plane coordinate on the unit square: 1/12
    m2 = w @ pts2[:, 0] ** 2
    assert abs(m2 - 1.0 / 12.0) < 1e-12


def test_face_rule_triangle(unit_tet):
    for f in range(unit_tet.n_faces):
        _, _, (w,) = quad.face_quadrature(unit_tet, [f], 5)
        area = unit_tet.face_stack.area[f]
        assert abs(np.sum(w) - area) < 1e-13
    # exactness on the in-plane frame: integrate centered monomials and
    # compare against a brute-force fine rule
    (pts2,), _, (w,) = quad.face_quadrature(unit_tet, [0], 5)
    (ref2,), _, (refw,) = quad.face_quadrature(unit_tet, [0], 21)
    for a, b in multi_indices(5, 2):
        v1 = w @ (pts2[:, 0] ** a * pts2[:, 1] ** b)
        v2 = refw @ (ref2[:, 0] ** a * ref2[:, 1] ** b)
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v2))


def test_edge_rule():
    rule = edge_quadrature(np.zeros(1), np.ones(1), 3)
    s3 = rule.points[:, 0] ** 3
    assert abs(rule.weights @ s3 - 0.25) < 1e-14
    assert abs(np.sum(rule.weights) - 1.0) < 1e-14


def test_triangle_reference_closed_form():
    pts, w = quad.reference_simplex_rule(2, 6)
    for a, b in multi_indices(6, 2):
        val = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
        assert abs(val - triangle_monomial_integral(a, b)) < 1e-13


def test_non_star_shaped_cell_rejected():
    """A thin L-prism whose barycenter lies outside the cell."""
    lshape = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    bot = [(x, y, 0.0) for x, y in lshape]
    top = [(x, y, 1.0) for x, y in lshape]
    verts = np.array(bot + top, dtype=float)
    nvl = len(lshape)
    faces = [list(range(nvl))[::-1], [i + nvl for i in range(nvl)]]
    for i in range(nvl):
        j = (i + 1) % nvl
        faces.append([i, j, j + nvl, i + nvl])
    cells = [[f + 1 for f in range(len(faces))]]
    mesh = PolyMesh(verts, faces, cells)
    xb = mesh.cell_stack.barycenter[0]
    assert not (0 <= xb[0] <= 4 and (xb[0] <= 1 or xb[1] <= 1))  # outside the L
    with pytest.raises(MeshError, match="star-shaped"):
        quad.cell_quadrature(mesh, 0, 2)
