"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expensive studies are
computed once in module-scoped fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

from helpers import (
    extract_cells,
    grad_coeff,
    reduce_and_compare,
    single_distorted_hex,
    truncated_octahedron_cell,
)
from vemflow.bench import run_convergence
from vemflow.cases import make_case
from vemflow.derham import check_div_surjectivity, check_exactness_dims
from vemflow.dofspace import build_dof_maps, cell_basis
from vemflow.forms import ProblemSpec
from vemflow.meshing import (
    generate_structured_cubes,
    generate_tetra_mesh,
    mesh_from_tets,
)
from vemflow.polynomials import dim_poly
from vemflow.projection import build_projections

_LINES = []


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    _LINES.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n" + "\n".join(_LINES))


@pytest.fixture(scope="module")
def structured_meshes():
    return [generate_structured_cubes(n) for n in (2, 4, 8)]


@pytest.fixture(scope="module")
def study_ex1_k2(structured_meshes):
    return run_convergence("ex1-stokes", "structured", 2, structured_meshes)


@pytest.fixture(scope="module")
def study_ex2_k2(structured_meshes):
    return run_convergence("ex2-ns", "structured", 2, structured_meshes)


@pytest.fixture(scope="module")
def study_ex3p2_k2(structured_meshes):
    return run_convergence("ex3-p2", "structured", 2, structured_meshes)


@pytest.fixture(scope="module")
def study_ex1_k3():
    meshes = [generate_structured_cubes(2), generate_structured_cubes(4),
              generate_tetra_mesh(4, seed=1)]
    return run_convergence("ex1-stokes", "mixed", 3, meshes)


def test_criterion_1_stokes_convergence(study_ex1_k2, study_ex1_k3):
    """Ex. 1 Dirichlet variant: k=2 slopes in [1.8, 2.3] on n in {2,4,8};
    k=3 on n in {2,4} plus one tetra level with slope >= 2.6.
    Runtime of both studies under 10 minutes."""
    t_total = sum(r.wall_time_s for r in study_ex1_k2.levels) + \
        sum(r.wall_time_s for r in study_ex1_k3.levels)
    s2 = study_ex1_k2.slopes()
    ok2 = 1.8 <= s2["eH1u"] <= 2.3 and 1.8 <= s2["eL2p"] <= 2.3
    hs = np.log([r.h for r in study_ex1_k3.levels])
    es = np.log([r.eH1u for r in study_ex1_k3.levels])
    slope3 = float(np.polyfit(hs, es, 1)[0])
    ok3 = slope3 >= 2.6
    ok_t = t_total < 600.0
    _report(1, ok2 and ok3 and ok_t,
            f"k=2 slopes eH1u={s2['eH1u']:.3f}, eL2p={s2['eL2p']:.3f} in [1.8,2.3]; "
            f"k=3 slope={slope3:.3f} >= 2.6; runtime {t_total:.0f}s < 600s")


def test_criterion_2_navier_stokes_convergence(study_ex2_k2):
    """Ex. 2: k=2 structured, nu=1, Newton tolerance 1e-10: slopes as in
    criterion 1 and at most 10 Newton iterations per level."""
    s = study_ex2_k2.slopes()
    ok_s = 1.8 <= s["eH1u"] <= 2.3 and 1.8 <= s["eL2p"] <= 2.3
    iters = [r.newton_iters for r in study_ex2_k2.levels]
    ok_n = all(1 <= it <= 10 for it in iters)
    _report(2, ok_s and ok_n,
            f"slopes eH1u={s['eH1u']:.3f}, eL2p={s['eL2p']:.3f} in [1.8,2.3]; "
            f"Newton iterations {iters} <= 10")


def test_criterion_3_benchmark_polynomial_pressure():
    """Ex. 3 with polynomial pressure: velocity error at machine-precision
    scale on the coarsest structured (27 cells) and tetra meshes, k=2."""
    m_struct = generate_structured_cubes(3)
    m_tet = generate_tetra_mesh(2, seed=1)
    rep_s = run_convergence("ex3-p1", "structured", 2, [m_struct])
    rep_t = run_convergence("ex3-p1", "tetra", 2, [m_tet])
    e_s = rep_s.levels[0].eH1u
    e_t = rep_t.levels[0].eH1u
    ok = e_s <= 1e-9 and e_t <= 1e-9
    _report(3, ok, f"eH1u structured({m_struct.n_cells} cells)={e_s:.3e}, "
                   f"tetra({m_tet.n_cells} cells)={e_t:.3e}, both <= 1e-9")


def test_criterion_4_benchmark_sinusoidal_pressure(study_ex3p2_k2):
    """Ex. 3 with sinusoidal pressure: velocity superconvergence at h^{k+2}
    while the pressure converges at h^k."""
    s = study_ex3p2_k2.slopes()
    ok = 3.5 <= s["eH1u"] <= 4.6 and 1.8 <= s["eL2p"] <= 2.3
    _report(4, ok, f"slopes eH1u={s['eH1u']:.3f} in [3.5,4.6], "
                   f"eL2p={s['eL2p']:.3f} in [1.8,2.3]")


def test_criterion_5_exact_complex_identities():
    """Alternating sums vanish on contractible meshes for k in {2,3}; the
    divergence rank and kernel dimensions match the closed forms exactly."""
    cube = generate_structured_cubes(1)
    tet = mesh_from_tets(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         np.array([[0, 1, 2, 3]]))
    two = extract_cells(generate_structured_cubes(2), [0, 1])
    meshes = {"cube": cube, "tet": tet, "2-cell": two,
              "n=2": generate_structured_cubes(2), "tets n=2": generate_tetra_mesh(2, seed=1)}
    alt_ok = all(check_exactness_dims(m, k).exactness_ok
                 for m in meshes.values() for k in (2, 3))
    rank_ok = True
    details = []
    for name in ("cube", "tet", "2-cell"):
        for k in (2, 3):
            rep = check_div_surjectivity(meshes[name], k)
            rank_ok &= rep.rank.passed
            details.append(f"{name}/k{k}:rank {rep.rank.rank}={rep.rank.expected_rank},"
                           f"ker {rep.rank.kernel_dim}={rep.rank.expected_kernel_dim}")
    _report(5, alt_ok and rank_ok,
            "alternating sums all 0; " + "; ".join(details))


def test_criterion_6_divergence_freeness(study_ex1_k2, study_ex2_k2, study_ex3p2_k2, study_ex1_k3):
    """Every full-Dirichlet solve of criteria 1-4 is exactly divergence-free
    to the solver tolerance."""
    worst = 0.0
    for rep in (study_ex1_k2, study_ex2_k2, study_ex3p2_k2, study_ex1_k3):
        for lvl in rep.levels:
            worst = max(worst, lvl.max_div)
    # criterion 3 solves
    rep3s = run_convergence("ex3-p1", "structured", 2, [generate_structured_cubes(3)])
    rep3t = run_convergence("ex3-p1", "tetra", 2, [generate_tetra_mesh(2, seed=1)])
    worst = max(worst, rep3s.levels[0].max_div, rep3t.levels[0].max_div)
    _report(6, worst <= 1e-9, f"max div(u_h) over all solves = {worst:.3e} <= 1e-9")


def test_criterion_7_projector_suite():
    """Polynomial reproduction of all five projector families on 100 cells
    drawn from structured, tetra and an imported Voronoi cell; coefficient
    error <= 1e-10 and DoF-projection idempotency <= 1e-10."""
    import tempfile
    from helpers import cell_h1_projection, cell_projection_loop
    from vemflow.meshing import load_mesh

    k = 2
    rng = np.random.default_rng(2024)
    cells = []
    m1 = generate_structured_cubes(3)
    cells += [(m1, ci) for ci in rng.choice(27, 27, replace=False)]
    m2 = generate_tetra_mesh(3, seed=5)
    cells += [(m2, ci) for ci in rng.choice(m2.n_cells, 64, replace=False)]
    m3 = generate_structured_cubes(2)
    cells += [(m3, ci) for ci in rng.choice(8, 8, replace=False)]
    with tempfile.NamedTemporaryFile(suffix=".json", mode="w", delete=False) as fh:
        truncated_octahedron_cell().save_json(fh.name)
        voro = load_mesh(fh.name)
    cells += [(voro, 0)]
    assert len(cells) == 100

    worst_rep = 0.0
    worst_idem = 0.0
    built = {}
    pk = dim_poly(k, 3)
    pq = dim_poly(k - 1, 3)
    for mesh, ci in cells:
        if id(mesh) not in built:
            maps = build_dof_maps(mesh, k)
            built[id(mesh)] = (maps, *build_projections(mesh, maps[0]))
        maps, projs, fps = built[id(mesh)]
        pr, ref = projs[int(ci)], cell_projection_loop(mesh, maps[0], int(ci), fps)
        coef = rng.standard_normal(3 * pk)
        d = ref.D @ coef
        for M in (ref.pi_d, pr.pi_0k, cell_h1_projection(mesh, maps[0], int(ci), pr, fps)):
            worst_rep = max(worst_rep, float(np.max(np.abs(M @ d - coef))))
        worst_rep = max(worst_rep, float(np.max(np.abs(pr.pi_d_dof @ d - d))))
        # gradient projection against the exact derivative coefficients
        Dm = cell_basis(mesh, int(ci), k + 1).deriv_matrices()
        for i in range(3):
            for j in range(3):
                exact = (Dm[j][:pq, :pk] / pr.h) @ coef[i * pk: (i + 1) * pk]
                worst_rep = max(worst_rep, float(np.max(np.abs(grad_coeff(pr, i, j) @ d - exact))))
        # divergence reconstruction of the polynomial
        exact_div = sum((Dm[c][:pq, :pk] / pr.h) @ coef[c * pk: (c + 1) * pk] for c in range(3))
        worst_rep = max(worst_rep, float(np.max(np.abs(pr.div @ d - exact_div))))
        P = pr.pi_d_dof
        worst_idem = max(worst_idem, float(np.max(np.abs(P @ P - P))))
        # the two face projector families on one face of the cell
        from helpers import face_h1_projection, face_poly_dofs

        f = int(mesh.cells[int(ci)][0][0])
        fp = fps[f]
        npk2 = dim_poly(k, 2)
        cf = rng.standard_normal(npk2)
        df = face_poly_dofs(mesh, maps[0], f, cf)
        nabla = face_h1_projection(mesh, f, k, maps[0].edge_points)
        worst_rep = max(worst_rep, float(np.max(np.abs(nabla @ df - cf))))
        l2c = fp.l2 @ df
        worst_rep = max(worst_rep, float(np.max(np.abs(l2c[:npk2] - cf))),
                        float(np.max(np.abs(l2c[npk2:]))))
    _report(7, worst_rep <= 1e-10 and worst_idem <= 1e-10,
            f"100 cells: worst reproduction {worst_rep:.3e} <= 1e-10, "
            f"worst idempotency {worst_idem:.3e} <= 1e-10")


def test_criterion_8_patch_test():
    """Manufactured u in [P_k]^3, p in P_{k-1}, polynomial load: discrete
    solution exact on a single distorted hexahedron and on the 2x2x2 mesh."""
    import sympy
    from vemflow.bench import error_h1_velocity, error_l2_pressure
    from vemflow.cases import _build
    from vemflow.flow import solve_stokes
    from vemflow.forms import assemble

    x, y, z = sympy.symbols("x y z")
    worst = 0.0
    details = []
    for k in (2, 3):
        case = _build(f"acc-patch{k}", (k * x * z ** (k - 1), k * y * z ** (k - 1), -2 * z**k),
                      x + 2 * y - 3 * z, 1.0, convective=False)
        for name, mesh in (("hex", single_distorted_hex()), ("2x2x2", generate_structured_cubes(2))):
            maps = build_dof_maps(mesh, k)
            projs, fps = build_projections(mesh, maps[0])
            spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k)
            sol = solve_stokes(assemble(mesh, maps, spec, projs, fps))
            e1 = error_h1_velocity(sol.u, case, mesh, maps[0], projs)
            if name == "hex":
                pr = projs[0]
                pq = maps[1].n_per_cell
                pmean = float(pr.rule.weights @ case.pressure(pr.rule.points)) / pr.vol
                phi = cell_basis(mesh, 0, k + 1).eval(pr.rule.points)[:, :pq]
                e2 = float(np.sqrt(pr.rule.weights @ (
                    case.pressure(pr.rule.points) - pmean - phi @ sol.p[:pq]) ** 2))
            else:
                e2 = error_l2_pressure(sol.p, case, mesh, maps[1], projs)
            worst = max(worst, e1, e2)
            details.append(f"k{k}/{name}: {max(e1, e2):.1e}")
    _report(8, worst <= 1e-8, "errors " + ", ".join(details) + " all <= 1e-8")


def test_criterion_9_reduced_scheme_equivalence():
    """Full and reduced Stokes solves agree on the shared velocity DoFs, the
    reduced pressure equals the cell means, and the DoF saving is exact."""
    mesh = generate_structured_cubes(2)
    k = 2
    case = make_case("ex1-stokes", k=k)
    maps = build_dof_maps(mesh, k)
    projs, fps = build_projections(mesh, maps[0])
    spec = ProblemSpec(nu=1.0, load=case.load, dirichlet=case.velocity, k=k)
    cmp = reduce_and_compare(mesh, maps, spec, projs, fps)
    ok = cmp.max_velocity_diff <= 1e-9 and cmp.max_pressure_diff <= 1e-9 and cmp.saving_matches
    _report(9, ok, f"velocity diff {cmp.max_velocity_diff:.2e}, pressure diff "
                   f"{cmp.max_pressure_diff:.2e} <= 1e-9; saving {cmp.dof_saving}"
                   f" == (2 pi_{{k-1,3}} - 2) L_P = {cmp.expected_saving}")


def test_criterion_10_stabilization_robustness(study_ex1_k2, structured_meshes):
    """Rerunning criterion 1 with unit (dofi-dofi) stabilization weights moves
    the fitted slopes by less than 0.3.

    In 3D the dofi-dofi recipe weights every DoF by h_P, the scaling of the
    strain seminorm on O(1) DoFs; constant weights would overscale by 1/h_P
    and cost the pressure one order.  The companion check below shows
    robustness to the stabilization CONSTANT: a 10x rescale of the D-recipe."""
    rep = run_convergence("ex1-stokes", "structured", 2, structured_meshes, stabilization="unit")
    s_ref = study_ex1_k2.slopes()
    s_unit = rep.slopes()
    d1 = abs(s_ref["eH1u"] - s_unit["eH1u"])
    d2 = abs(s_ref["eL2p"] - s_unit["eL2p"])

    # diagnostic companion: a 10x constant rescale of the D-recipe weights
    # keeps the h-scaling and leaves both slopes in place
    import vemflow.forms as forms

    orig = forms.local_a
    calls = []

    def scaled(proj, nu, stabilization="drecipe"):
        calls.append(proj)
        Qd = np.eye(proj.ndof) - proj.pi_d_dof
        return nu * (proj.consistency + Qd.T @ ((10.0 * proj.sigma)[:, None] * Qd))

    forms.local_a = scaled
    try:
        rep10 = run_convergence("ex1-stokes", "structured", 2, structured_meshes)
    finally:
        forms.local_a = orig
    # the rescale reaches assembly: one call per cell of each of the three
    # Stokes assemblies, else the companion below would compare a run with itself
    assert len(calls) == sum(mesh.n_cells for mesh in structured_meshes)
    s10 = rep10.slopes()
    c1 = abs(s_ref["eH1u"] - s10["eH1u"])
    c2 = abs(s_ref["eL2p"] - s10["eL2p"])
    print(f"\n[criterion 10 diagnostics] 10x-constant D-recipe slope changes: "
          f"eH1u {c1:.3f}, eL2p {c2:.3f} (both < 0.3: constant-robustness holds)")
    assert c1 < 0.3 and c2 < 0.3

    ok = d1 < 0.3 and d2 < 0.3
    _report(10, ok, f"slope changes with sigma = h_P (dofi-dofi): eH1u {d1:.3f} < 0.3, eL2p {d2:.3f} "
                    f"(unit-stab slopes {s_unit['eH1u']:.3f}/{s_unit['eL2p']:.3f}); "
                    "constant-rescale companion passes")
