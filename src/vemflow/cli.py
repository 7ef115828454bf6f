"""Command-line driver: mesh generation and checking, DoF summaries,
complex verification, single solves and convergence studies."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench, derham
from .cases import make_case
from .dofspace import build_dof_maps, dof_summary
from .flow import (
    NSOptions,
    SolverError,
    export_solution_json,
    sample_fields_csv,
    solve_navier_stokes,
    solve_stokes,
)
from .forms import assemble, dump_matrix
from .meshing import (
    MeshError,
    generate_structured_cubes,
    generate_tetra_mesh,
    load_mesh,
    mesh_size,
    quality_check,
)
from .projection import build_projections

STAB_HELP = ("stabilization weights on (I - Pi^D): drecipe = max(h_P, diag of the "
             "consistency term), unit = 3D dofi-dofi, h_P on every DoF")


def _get_mesh(args):
    if getattr(args, "mesh", None) is not None:
        return load_mesh(args.mesh, getattr(args, "format", "json-poly"))
    if getattr(args, "cubes", None) is not None:
        return generate_structured_cubes(args.cubes)
    if getattr(args, "tets", None) is not None:
        return generate_tetra_mesh(args.tets, jitter=args.jitter, seed=args.seed)
    raise SystemExit("no mesh specified: use --mesh, --cubes or --tets")


def cmd_mesh_gen(args):
    mesh = _get_mesh(args)
    mesh.save_json(args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_edges} edges, "
          f"{mesh.n_faces} faces, {mesh.n_cells} cells, h = {mesh_size(mesh):.6g}")


def cmd_mesh_check(args):
    mesh = load_mesh(args.file, args.format)
    rep = quality_check(mesh, args.rho)
    print(f"cells: {mesh.n_cells}  h: {mesh_size(mesh):.6g}  euler: {mesh.euler_number()}")
    print(f"rho_hat: {rep.rho_hat:.6g}  min ball proxy: {rep.ball_ratio.min():.6g}")
    print(f"{'PASS' if rep.passed else 'FAIL'} against rho = {args.rho}")
    if rep.failing_cells:
        print("failing cells:", rep.failing_cells[:20])
    return 0 if rep.passed else 1


def cmd_dofs(args):
    mesh = _get_mesh(args)
    maps = build_dof_maps(mesh, args.k)
    print(json.dumps(dof_summary(mesh, *maps), indent=1))


def cmd_complex_check(args):
    mesh = _get_mesh(args)
    rep = derham.check_div_surjectivity(mesh, args.k)
    payload = rep.to_json_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    print(json.dumps(payload, indent=1))
    ok = rep.exactness_ok and rep.rank is not None and rep.rank.passed
    return 0 if ok else 1


def cmd_solve(args):
    mesh = _get_mesh(args)
    case = make_case(args.case, k=args.k, nu=args.nu)
    maps = build_dof_maps(mesh, args.k)
    mapv, mapq = maps
    projs, faceprojs = build_projections(mesh, mapv)
    # translated cells and faces share one set of arrays, built once
    print(f"projections built: {len({id(pr.pi_0k) for pr in projs})} of {len(projs)} cells, "
          f"{len({id(fp.l2) for fp in faceprojs.values()})} of {len(faceprojs)} faces")
    spec = bench.case_spec(case, args.k, args.stab, args.neumann)
    system = assemble(mesh, maps, spec, projs, faceprojs)
    if args.dump_matrix:
        dump_matrix(system, args.dump_matrix)
    if case.convective:
        sol = solve_navier_stokes(mesh, maps, spec, projs, faceprojs,
                                  NSOptions(tol=args.newton_tol), system=system)
        if not sol.converged:
            print(sol.diagnostic)
            return 1
        print(f"Newton converged in {sol.newton_iterations} iterations")
        print("Newton linear solves (path, GMRES iterations): "
              + ", ".join(f"{path} {its}" for path, its in sol.linear_solves))
    else:
        sol = solve_stokes(system)
        (path, its), = sol.linear_solves
        print(f"Stokes linear solve (path, GMRES iterations): {path} {its}")
    e1 = bench.error_h1_velocity(sol.u, case, mesh, mapv, projs)
    e2 = bench.error_l2_pressure(sol.p, case, mesh, mapq, projs)
    dv = derham.check_divfree(sol.u, mesh, mapv, projs)
    print(f"h = {mesh_size(mesh):.6g}  eH1u = {e1:.6e}  eL2p = {e2:.6e}  max div = {dv:.3e}  "
          f"saddle rows = {sol.saddle_rows}  LU fill = {sol.lu_fill}")
    if args.export:
        export_solution_json(sol, args.export, meta={"case": args.case, "k": args.k})
    if args.sample:
        sample_fields_csv(mesh, maps, projs, sol, args.sample)


def cmd_bench_run(args):
    meshes = bench.family_meshes(args.family, args.levels, args.mesh_paths)
    rep = bench.run_convergence(
        args.case, args.family, args.k, meshes, nu=args.nu,
        stabilization=args.stab, neumann=args.neumann, out=args.out,
    )
    sys.stdout.write(rep.to_csv())
    print("slopes:", json.dumps(rep.slopes()))
    for failure in rep.failures:
        print(f"level {failure['level']}: {failure['error']}", file=sys.stderr)
    return 1 if rep.failures else 0


def cmd_bench_rates(args):
    print(json.dumps(bench.rates_from_csv(args.file), indent=1))


def _add_mesh_source(p):
    p.add_argument("--mesh", help="mesh file (json-poly)")
    p.add_argument("--format", default="json-poly", choices=["json-poly", "tetra-list"])
    p.add_argument("--cubes", type=int, help="generate n^3 structured cubes")
    p.add_argument("--tets", type=int, help="generate 6 n^3 tetrahedra")
    p.add_argument("--jitter", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="vemflow")
    sub = ap.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="mesh utilities").add_subparsers(dest="sub", required=True)
    gen = mesh.add_parser("gen", help="generate a mesh file")
    _add_mesh_source(gen)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_mesh_gen)
    chk = mesh.add_parser("check", help="shape-regularity diagnostics")
    chk.add_argument("file")
    chk.add_argument("--rho", type=float, default=0.1)
    chk.add_argument("--format", default="json-poly", choices=["json-poly", "tetra-list"])
    chk.set_defaults(func=cmd_mesh_check)

    dofs = sub.add_parser("dofs", help="DoF-map summary (JSON)")
    _add_mesh_source(dofs)
    dofs.add_argument("--k", type=int, default=2)
    dofs.set_defaults(func=cmd_dofs)

    cc = sub.add_parser("complex-check", help="discrete complex verification")
    _add_mesh_source(cc)
    cc.add_argument("--k", type=int, default=2)
    cc.add_argument("--json", help="write the report to this file")
    cc.set_defaults(func=cmd_complex_check)

    sv = sub.add_parser("solve", help="solve one manufactured problem")
    _add_mesh_source(sv)
    sv.add_argument("--case", default="ex1-stokes")
    sv.add_argument("--k", type=int, default=2)
    sv.add_argument("--nu", type=float, default=1.0)
    sv.add_argument("--stab", default="drecipe", choices=["drecipe", "unit"],
                    help=STAB_HELP)
    sv.add_argument("--neumann", action="store_true", help="Neumann faces on x = 0, 1")
    sv.add_argument("--newton-tol", type=float, default=1e-10)
    sv.add_argument("--dump-matrix", help="write assembled blocks as (row, col, value)")
    sv.add_argument("--export", help="write the solution as JSON")
    sv.add_argument("--sample", help="write barycenter samples as CSV")
    sv.set_defaults(func=cmd_solve)

    br = sub.add_parser("bench", help="convergence studies").add_subparsers(dest="sub", required=True)
    run = br.add_parser("run")
    run.add_argument("--case", required=True)
    run.add_argument("--family", default="structured",
                     choices=["structured", "tetra", "cvt", "random"])
    run.add_argument("--k", type=int, default=2)
    run.add_argument("--levels", type=int,
                     help="levels of a generated family (default 3); import-only families "
                          "take one per --mesh-paths file")
    run.add_argument("--nu", type=float, default=1.0)
    run.add_argument("--stab", default="drecipe", choices=["drecipe", "unit"],
                    help=STAB_HELP)
    run.add_argument("--neumann", action="store_true")
    run.add_argument("--mesh-paths", nargs="*", help="mesh files for import-only families")
    run.add_argument("--out", help="CSV output path (a .json summary is written too)")
    run.set_defaults(func=cmd_bench_run)
    rates = br.add_parser("rates")
    rates.add_argument("file")
    rates.set_defaults(func=cmd_bench_rates)

    args = ap.parse_args(argv)
    try:
        rc = args.func(args)
    except (MeshError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
