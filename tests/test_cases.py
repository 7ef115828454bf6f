import numpy as np
import pytest

from vemflow.cases import make_case, x_plane_neumann


def test_unknown_case():
    with pytest.raises(ValueError, match="unknown case"):
        make_case("nope")


@pytest.mark.parametrize("name,k", [
    ("ex1-stokes", 2), ("ex2-ns", 2), ("ex3-p1", 2), ("ex3-p1", 3), ("ex3-p2", 2),
])
def test_divergence_free(name, k):
    case = make_case(name, k=k)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (200, 3))
    g = case.grad_velocity(pts)
    div = g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]
    assert np.max(np.abs(div)) < 1e-12


def test_gradient_finite_difference():
    case = make_case("ex1-stokes")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, (50, 3))
    g = case.grad_velocity(pts)
    eps = 1e-6
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = eps
        fd = (case.velocity(pts + dp) - case.velocity(pts - dp)) / (2 * eps)
        assert np.max(np.abs(fd - g[:, :, j])) < 1e-8


def test_ex1_load_against_hand_derivation():
    """Independent oracle for the load: f = -(nu/2) Lap u - grad p with
    Lap u = -3 pi^2 u for the trigonometric velocity."""
    nu = 1.3
    case = make_case("ex1-stokes", nu=nu)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (100, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    pi = np.pi
    u = case.velocity(pts)
    grad_p = pi**2 * np.stack([
        np.sin(pi * x) * np.cos(pi * y) * np.cos(pi * z),
        np.cos(pi * x) * np.sin(pi * y) * np.cos(pi * z),
        np.cos(pi * x) * np.cos(pi * y) * np.sin(pi * z),
    ], axis=1)
    f_hand = -(nu / 2.0) * (-3 * pi**2) * u - grad_p
    assert np.max(np.abs(case.load(pts) - f_hand)) < 1e-8


def test_ex3p1_load_is_polynomial_of_degree_k():
    """The benchmark with polynomial pressure has a polynomial load of degree
    <= k, so the load approximation is exact (finite differences of order
    k+1 vanish)."""
    k = 2
    case = make_case("ex3-p1", k=k)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(0.2, 0.4, 3)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    ts = np.arange(k + 2) * 0.05
    vals = case.load(x0[None, :] + ts[:, None] * d[None, :])
    # (k+1)-th finite difference along a line kills polynomials of degree k
    from math import comb

    diff = sum((-1) ** i * comb(k + 1, i) * vals[k + 1 - i] for i in range(k + 2))
    assert np.max(np.abs(diff)) < 1e-9


def test_ns_load_includes_convection():
    nu = 1.0
    stokeslike = make_case("ex1-stokes", nu=nu)
    ns = make_case("ex2-ns", nu=nu)
    pts = np.array([[0.3, 0.4, 0.6]])
    u = ns.velocity(pts)
    g = ns.grad_velocity(pts)
    conv = np.einsum("nij,nj->ni", g, u)
    # remove the convective part and the (different) pressure gradients
    pi = np.pi
    x, y, z = pts[0]
    gp_ns = 2 * pi * np.array([
        np.cos(2 * pi * x) * np.sin(2 * pi * y) * np.sin(2 * pi * z),
        np.sin(2 * pi * x) * np.cos(2 * pi * y) * np.sin(2 * pi * z),
        np.sin(2 * pi * x) * np.sin(2 * pi * y) * np.cos(2 * pi * z),
    ])
    gp_st = pi**2 * np.array([
        np.sin(pi * x) * np.cos(pi * y) * np.cos(pi * z),
        np.cos(pi * x) * np.sin(pi * y) * np.cos(pi * z),
        np.cos(pi * x) * np.cos(pi * y) * np.sin(pi * z),
    ])
    viscous_ns = ns.load(pts)[0] - conv[0] + gp_ns
    viscous_st = stokeslike.load(pts)[0] + gp_st
    assert np.max(np.abs(viscous_ns - viscous_st)) < 1e-10


def test_traction_consistency(cube2, disc):
    """The manufactured traction matches the natural boundary term of the
    discretized weak form: the Neumann solve reproduces the solution."""
    from vemflow.bench import run_convergence

    rep = run_convergence("ex1-stokes", "structured", 2, [cube2], neumann=True)
    assert rep.levels[0].eH1u < 2.0   # converging variant; rate tested in bench


def test_pressures_zero_mean():
    for name, k in (("ex1-stokes", 2), ("ex2-ns", 2), ("ex3-p1", 2), ("ex3-p1", 3), ("ex3-p2", 2)):
        case = make_case(name, k=k)
        # tensorized Gauss on the cube
        from vemflow.quadrature import _gauss_01

        t, w = _gauss_01(12)
        X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        mean = W @ case.pressure(pts)
        assert abs(mean) < 1e-10, name


def test_x_plane_classifier():
    assert x_plane_neumann(np.array([0.0, 0.5, 0.5]), np.array([-1.0, 0, 0]))
    assert x_plane_neumann(np.array([1.0, 0.2, 0.8]), np.array([1.0, 0, 0]))
    assert not x_plane_neumann(np.array([0.5, 0.0, 0.5]), np.array([0, -1.0, 0]))
