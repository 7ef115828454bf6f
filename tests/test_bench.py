import warnings

import numpy as np
import pytest

from helpers import cell_projection_loop, zero_divergence
from vemflow.bench import (
    ErrorReport,
    LevelResult,
    error_h1_velocity,
    error_l2_pressure,
    family_meshes,
    rates_from_csv,
    run_convergence,
)
from vemflow.cases import make_case
from vemflow.dofspace import cell_basis, interpolate_velocity
from vemflow.meshing import generate_structured_cubes
from vemflow.polynomials import dim_poly


def test_error_h1_exact_for_interpolated_polynomial(cube2, disc):
    k = 2
    case = make_case("ex3-p1", k=k)     # velocity in [P_k]^3
    maps, projs, fps = disc(cube2, k)
    d = interpolate_velocity(cube2, maps[0], case.velocity, zero_divergence)
    assert error_h1_velocity(d, case, cube2, maps[0], projs) < 1e-10


def test_error_h1_zero_solution_is_gradient_norm(cube2, disc):
    """e_H1(0) = ||grad u||_{L2}; for the trigonometric velocity the closed
    form is 3 pi / 2."""
    case = make_case("ex1-stokes")
    maps, projs, fps = disc(cube2, 2)
    got = error_h1_velocity(np.zeros(maps[0].ndof), case, cube2, maps[0], projs)
    # independent quadrature oracle
    oracle = 0.0
    for pr in projs:
        g = case.grad_velocity(pr.rule.points)
        oracle += float(pr.rule.weights @ np.einsum("qij,qij->q", g, g))
    assert abs(got - np.sqrt(oracle)) < 1e-12
    assert abs(got - 1.5 * np.pi) < 1e-10


def test_error_l2_pressure_oracle(cube2, disc):
    case = make_case("ex1-stokes")
    maps, projs, fps = disc(cube2, 2)
    mapq = maps[1]
    # cellwise L2 projection of the exact pressure reproduces it to the
    # best-approximation floor; a linear pressure is matched exactly
    import sympy
    from vemflow.cases import _build

    x, y, z = sympy.symbols("x y z")
    lin = _build("lin-p", (2 * x * z, 2 * y * z, -2 * z**2), x - y / 2, 1.0, False)
    p_proj = np.zeros(mapq.ndof)
    pq = mapq.n_per_cell
    for ci, pr in enumerate(projs):
        phi = cell_basis(cube2, ci, 3).eval(pr.rule.points)[:, :pq]
        p_proj[ci * pq: (ci + 1) * pq] = np.linalg.solve(
            pr.Hq, phi.T @ (pr.rule.weights * lin.pressure(pr.rule.points)))
    assert error_l2_pressure(p_proj, lin, cube2, mapq, projs) < 1e-10
    # zero pressure against the trigonometric case: ||p|| = pi / sqrt(8)
    got = error_l2_pressure(np.zeros(mapq.ndof), case, cube2, mapq, projs)
    assert abs(got - np.pi / np.sqrt(8.0)) < 1e-10


def test_error_ratio_halving(disc):
    """Halving h on the Stokes example at k=2 divides e_H1 by about 4, and
    both fitted slopes stay inside the [k - 0.25, k + 0.6] window."""
    rep = run_convergence("ex1-stokes", "structured", 2, family_meshes("structured", 2))
    ratio = rep.levels[0].eH1u / rep.levels[1].eH1u
    assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3
    ratio_p = rep.levels[0].eL2p / rep.levels[1].eL2p
    assert 4.0 * 0.7 <= ratio_p <= 4.0 * 1.3
    s = rep.slopes()
    assert 2 - 0.25 <= s["eH1u"] <= 2 + 0.6
    assert 2 - 0.25 <= s["eL2p"] <= 2 + 0.6


def test_slope_fit_window():
    rep = ErrorReport(case="x", family="structured", k=2, nu=1.0)
    # synthetic exact h^2 data: the fit must be 2 regardless of the window
    for lvl, h in enumerate((0.8, 0.4, 0.2, 0.1)):
        rep.levels.append(LevelResult(lvl, h, 1, 1, h**2, 2 * h**2, 0, 0.0, 0.0))
    s = rep.slopes()
    assert abs(s["eH1u"] - 2.0) < 1e-12
    assert abs(s["eL2p"] - 2.0) < 1e-12
    # slope undefined with a single level
    one = ErrorReport(case="x", family="structured", k=2, nu=1.0,
                      levels=[LevelResult(0, 0.5, 1, 1, 1.0, 1.0, 0, 0.0, 0.0)])
    assert one.slopes() == {"eH1u": None, "eL2p": None}


def test_csv_slopes_match_report_with_zero_column(tmp_path):
    """One fit serves the report and its CSV: a column with an error of 0
    gives None in both, without a warning."""
    rep = ErrorReport(case="x", family="structured", k=2, nu=1.0)
    for lvl, h in enumerate((0.8, 0.4, 0.2)):
        rep.levels.append(LevelResult(lvl, h, 1, 1, h**3, 0.0, 0, 0.0, 0.0))
    path = tmp_path / "zero.csv"
    path.write_text(rep.to_csv())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = rates_from_csv(str(path))
    assert fitted == rep.slopes()
    assert fitted["eL2p"] is None and abs(fitted["eH1u"] - 3.0) < 1e-12


def test_csv_deterministic_modulo_walltime(tmp_path):
    meshes = [generate_structured_cubes(1), generate_structured_cubes(2)]
    out1 = run_convergence("ex1-stokes", "structured", 2, meshes).to_csv()
    out2 = run_convergence("ex1-stokes", "structured", 2, meshes).to_csv()

    def strip_time(csv):
        lines = csv.strip().splitlines()
        return ["," .join(ln.split(",")[:-1]) for ln in lines]

    assert strip_time(out1) == strip_time(out2)


def test_csv_rates_round_trip(tmp_path):
    path = tmp_path / "res.csv"
    rep = run_convergence("ex1-stokes", "structured", 2, family_meshes("structured", 2), out=str(path))
    fitted = rates_from_csv(str(path))
    assert abs(fitted["eH1u"] - rep.slopes()["eH1u"]) < 1e-12
    assert (tmp_path / "res.csv.json").exists()


def test_neumann_variant_converges():
    """The Neumann variant (traction on the x = 0, 1 faces) reproduces the
    manufactured solution at the same order as the Dirichlet one."""
    rep = run_convergence("ex1-stokes", "structured", 2, family_meshes("structured", 2), neumann=True)
    s = rep.slopes()
    assert 1.6 <= s["eH1u"] <= 2.5
    assert 1.6 <= s["eL2p"] <= 2.5


def test_family_meshes():
    ms = family_meshes("structured", 2)
    assert [m.n_cells for m in ms] == [8, 64]
    ts = family_meshes("tetra", 1)
    assert ts[0].n_cells == 6 * 8
    assert len(family_meshes("structured", None)) == 3
    for family, levels in (("structured", 0), ("tetra", -1)):
        with pytest.raises(ValueError, match="levels >= 1"):
            family_meshes(family, levels)
    with pytest.raises(ValueError, match="import-only"):
        family_meshes("cvt", 1)
    with pytest.raises(ValueError, match="one level per mesh path"):
        family_meshes("random", 1, ["a.json", "b.json"])
    with pytest.raises(ValueError, match="unknown mesh family"):
        family_meshes("hexes", 1)


def test_voronoi_import_projection(tmp_path, voronoi_cell, disc):
    """An imported Voronoi cell goes through the whole projector pipeline."""
    path = tmp_path / "vor.json"
    voronoi_cell.save_json(str(path))
    from vemflow.meshing import load_mesh
    from vemflow.dofspace import build_dof_maps
    from vemflow.projection import build_projections

    mesh = load_mesh(str(path))
    maps = build_dof_maps(mesh, 2)
    projs, fps = build_projections(mesh, maps[0])
    pr = projs[0]
    rng = np.random.default_rng(8)
    coef = rng.standard_normal(3 * dim_poly(2, 3))
    d = cell_projection_loop(mesh, maps[0], 0, fps).D @ coef
    assert np.max(np.abs(pr.pi_0k @ d - coef)) < 1e-10
