"""Manufactured flow solutions on the unit cube.

The load is derived symbolically from the weak form actually discretized,

    nu a(u, v) + [c(u; u, v)] + b(v, p) = (f, v),   b(v, q) = int div v q,

whose strong form is  f = -nu div(eps(u)) + [(grad u) u] - grad p;  the
natural boundary traction on a Neumann face is  t = nu eps(u) n + p n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import sympy as sp

_X = sp.symbols("x y z")

CASE_NAMES = ("ex1-stokes", "ex2-ns", "ex3-p1", "ex3-p2")


@dataclass
class ManufacturedCase:
    name: str
    convective: bool
    nu: float
    velocity: Callable           # (n,3) -> (n,3)
    grad_velocity: Callable      # (n,3) -> (n,3,3), [i,j] = du_i/dx_j
    pressure: Callable           # (n,3) -> (n,)
    load: Callable               # (n,3) -> (n,3)
    traction: Callable           # ((n,3), normal) -> (n,3)


def _lambdify(exprs, shape: tuple) -> Callable:
    """One compiled function of x, y, z for all entries of `exprs`, with
    their common subexpressions shared: (n, 3) points -> (n, *shape) values.
    Constant entries are broadcast to the point count."""
    fun = sp.lambdify(_X, list(exprs), "numpy", cse=True)

    def call(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((len(pts), len(exprs)))
        for i, vals in enumerate(fun(pts[:, 0], pts[:, 1], pts[:, 2])):
            out[:, i] = vals
        return out.reshape((len(pts),) + shape)

    return call


def _symbolic(name: str, u_expr, p_expr, nu: float, convective: bool):
    """The case's fields as sympy expressions: velocity u, its gradient
    ([i, j] = du_i/dx_j), pressure p, load f and strain eps(u)."""
    u = sp.Matrix(u_expr)
    p = sp.sympify(p_expr)
    grad_u = u.jacobian(_X)
    div_u = sp.simplify(sum(sp.diff(u[i], _X[i]) for i in range(3)))
    if div_u != 0:
        raise ValueError(f"case {name}: manufactured velocity is not divergence-free")
    eps = (grad_u + grad_u.T) / 2
    div_eps = sp.Matrix([sum(sp.diff(eps[i, j], _X[j]) for j in range(3)) for i in range(3)])
    grad_p = sp.Matrix([sp.diff(p, v) for v in _X])
    conv = grad_u * u
    f = -nu * div_eps - grad_p + (conv if convective else sp.zeros(3, 1))
    return u, grad_u, p, f, eps


def _build(name: str, u_expr, p_expr, nu: float, convective: bool) -> ManufacturedCase:
    u, grad_u, p, f, eps = _symbolic(name, u_expr, p_expr, nu, convective)
    p_fun = _lambdify([p], ())
    eps_fun = _lambdify(eps, (3, 3))

    def traction(pts, normal):
        normal = np.asarray(normal, dtype=float)
        return (nu * eps_fun(pts) * normal).sum(axis=2) + p_fun(pts)[:, None] * normal

    return ManufacturedCase(
        name=name, convective=convective, nu=nu,
        velocity=_lambdify(u, (3,)), grad_velocity=_lambdify(grad_u, (3, 3)),
        pressure=p_fun, load=_lambdify(f, (3,)), traction=traction,
    )


def _expressions(name: str, k: int):
    """(velocity, pressure, convective) of a named case as sympy expressions."""
    x, y, z = _X
    pi = sp.pi
    if name in ("ex1-stokes", "ex2-ns"):
        u = (
            sp.sin(pi * x) * sp.cos(pi * y) * sp.cos(pi * z),
            sp.cos(pi * x) * sp.sin(pi * y) * sp.cos(pi * z),
            -2 * sp.cos(pi * x) * sp.cos(pi * y) * sp.sin(pi * z),
        )
        if name == "ex1-stokes":
            return u, -pi * sp.cos(pi * x) * sp.cos(pi * y) * sp.cos(pi * z), False
        return u, sp.sin(2 * pi * x) * sp.sin(2 * pi * y) * sp.sin(2 * pi * z), True
    if name in ("ex3-p1", "ex3-p2"):
        u = (
            k * x * z ** (k - 1),
            k * y * z ** (k - 1),
            (2 - k) * x**k + (2 - k) * y**k - 2 * z**k,
        )
        if name == "ex3-p1":
            return u, x**k * y + y**k * z + z**k * x - sp.Rational(3, 2 * (k + 1)), False
        return u, sp.sin(2 * pi * x) * sp.sin(2 * pi * y) * sp.sin(2 * pi * z), False
    raise ValueError(f"unknown case {name!r}; known: {CASE_NAMES}")


@lru_cache(maxsize=None)
def make_case(name: str, k: int = 2, nu: float = 1.0) -> ManufacturedCase:
    """Manufactured cases: the trigonometric Stokes and Navier-Stokes pair,
    and the degree-k benchmark velocity with polynomial (p1) or sinusoidal
    (p2) pressure."""
    u, p, convective = _expressions(name, k)
    return _build(name, u, p, nu, convective)


def x_plane_neumann(centroid: np.ndarray, normal: np.ndarray) -> bool:
    """Face classifier for the Neumann variant: faces on x = 0 and x = 1."""
    return abs(centroid[0]) < 1e-12 or abs(centroid[0] - 1.0) < 1e-12
