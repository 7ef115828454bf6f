import json

import pytest

from vemflow.cli import main
from vemflow.flow import KRYLOV_CAP


def test_mesh_gen_and_check(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["mesh", "gen", "--cubes", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["mesh", "check", "--rho", "0.1", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert main(["mesh", "check", "--rho", "0.9", str(out)]) == 1


@pytest.mark.parametrize("rho", ["nan", "-1", "inf"])
def test_mesh_check_rejects_a_bad_rho(rho, tmp_path, capsys):
    out = tmp_path / "c1.json"
    assert main(["mesh", "gen", "--cubes", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["mesh", "check", str(out), "--rho", rho]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rho must be finite and >= 0") and err.count("\n") == 1


def test_mesh_gen_tets(tmp_path):
    out = tmp_path / "t.json"
    assert main(["mesh", "gen", "--tets", "2", "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 48


def test_dofs_summary(capsys):
    assert main(["dofs", "--cubes", "1", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["velocity"]["total"] == 81


def test_complex_check(tmp_path, capsys):
    rpt = tmp_path / "rep.json"
    assert main(["complex-check", "--cubes", "1", "--k", "2", "--json", str(rpt)]) == 0
    data = json.loads(rpt.read_text())
    assert data["rank"]["passed"] is True


def test_complex_check_at_benchmark_size(capsys):
    """The certified rank has no DoF cap: the 6^3 cube mesh of the Stokes
    benchmark (6591 velocity DoFs) passes with rank dim Q and kernel dim Z."""
    assert main(["complex-check", "--cubes", "6", "--k", "2"]) == 0
    rank = json.loads(capsys.readouterr().out)["rank"]
    assert (rank["rank_B"], rank["kernel_dim"]) == (864, 5727)
    assert (rank["expected"], rank["expected_kernel_dim"]) == (864, 5727)
    assert "conclusive" not in rank


@pytest.mark.parametrize("argv, message", [
    (["dofs", "--cubes", "1", "--k", "5"], "unsupported degree k=5"),
    (["solve", "--cubes", "1", "--case", "nope"], "unknown case 'nope'"),
    (["mesh", "gen", "--tets", "2", "--jitter", "0.7", "--out", "m.json"], "jitter must be in"),
    (["dofs", "--cubes", "0"], "n must be >= 1"),
    (["dofs", "--tets", "0"], "n must be >= 1"),
    (["solve", "--cubes", "2", "--nu", "0"], "viscosity must be finite and > 0"),
    (["solve", "--cubes", "1", "--case", "ex2-ns", "--newton-tol", "0"], "tolerance must be finite and > 0"),
    (["bench", "run", "--case", "ex1-stokes", "--levels", "0"], "levels >= 1, got 0"),
])
def test_invalid_input_is_one_line(argv, message, capsys):
    """Invalid arguments end in a one-line error and exit code 2, not a
    traceback; a zero mesh size is invalid, not a missing mesh."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_solve_with_exports(tmp_path, capsys):
    mat = tmp_path / "mat.txt"
    sol = tmp_path / "sol.json"
    csv = tmp_path / "fields.csv"
    rc = main([
        "solve", "--case", "ex1-stokes", "--cubes", "2", "--k", "2",
        "--dump-matrix", str(mat), "--export", str(sol), "--sample", str(csv),
    ])
    assert rc == 0
    assert mat.exists() and sol.exists() and csv.exists()
    out = capsys.readouterr().out
    assert "eH1u" in out
    # 2^3 cubes at k = 2: 57 free reduced velocities, 8 cell pressures, the mean row
    assert "saddle rows = 66" in out and "LU fill = " in out


def test_bench_run_and_rates(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["bench", "run", "--case", "ex1-stokes", "--family", "structured",
               "--k", "2", "--levels", "2", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert main(["bench", "rates", str(out)]) == 0
    fitted = json.loads(capsys.readouterr().out)
    assert 1.5 < fitted["eH1u"] < 2.5


def test_bench_run_import_only_levels(tmp_path, capsys):
    """An import-only family has one level per mesh file: without --levels
    the study fits them all, and a --levels that disagrees is an error."""
    paths = [str(tmp_path / f"c{n}.json") for n in (1, 2)]
    for n, path in zip((1, 2), paths):
        assert main(["mesh", "gen", "--cubes", str(n), "--out", path]) == 0
    argv = ["bench", "run", "--case", "ex1-stokes", "--family", "cvt", "--mesh-paths", *paths]
    capsys.readouterr()
    assert main(argv + ["--levels", "1"]) == 2
    assert "one level per mesh path" in capsys.readouterr().err
    assert main(argv) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:3]] == ["0", "1"]
    assert main(argv + ["--levels", "2"]) == 0


def test_bench_run_reports_a_failed_level(tmp_path, capsys):
    """A level whose Newton run diverges is reported on standard error, one
    line per failed level, and the study fails, as `solve` does; the levels
    before it are printed, and the JSON summary records the failure."""
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["bench", "run", "--case", "ex2-ns", "--family", "tetra", "--levels", "1",
                 "--nu", "0.005", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out.splitlines() == ["level,h,ndof_u,ndof_p,eH1u,eL2p,newton_iters,wall_time_s",
                                        'slopes: {"eH1u": null, "eL2p": null}']
    assert printed.err.startswith("level 0: Newton diverged at step ") and printed.err.count("\n") == 1
    [failure] = json.loads((tmp_path / "f.csv.json").read_text())["failures"]
    assert printed.err == f"level {failure['level']}: {failure['error']}\n"


def test_bench_rates_needs_two_levels(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("level,h,ndof_u,ndof_p,eH1u,eL2p,newton_iters,wall_time_s\n0,0.5,1,1,0.25,0.1,0,0.0\n")
    capsys.readouterr()
    assert main(["bench", "rates", str(path)]) == 2
    assert capsys.readouterr().err == "error: need at least two levels to fit a slope\n"


def test_mesh_file_as_the_mesh_source(tmp_path, capsys):
    """`--mesh` reads the mesh that `--cubes` would generate."""
    path = tmp_path / "m.json"
    assert main(["mesh", "gen", "--cubes", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["dofs", "--mesh", str(path), "--k", "3"]) == 0
    from_file = capsys.readouterr().out
    assert main(["dofs", "--cubes", "2", "--k", "3"]) == 0
    assert json.loads(from_file) == json.loads(capsys.readouterr().out)


def test_no_mesh_source_exits_with_a_message():
    with pytest.raises(SystemExit, match="^no mesh specified: use --mesh, --cubes or --tets$"):
        main(["dofs"])


def test_bench_rates_zero_error_is_null(tmp_path, capsys):
    """A column with an error of 0 has no slope: `bench rates` prints null,
    valid JSON, as the report's own slopes do."""
    path = tmp_path / "r.csv"
    path.write_text("level,h,ndof_u,ndof_p,eH1u,eL2p,newton_iters,wall_time_s\n"
                    "0,0.5,1,1,0.25,0.0,0,0.0\n1,0.25,1,1,0.0625,0.0,0,0.0\n")
    assert main(["bench", "rates", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NaN" not in out
    fitted = json.loads(out)
    assert fitted["eL2p"] is None and abs(fitted["eH1u"] - 2.0) < 1e-12


def test_solve_reports_newton_failure(capsys):
    """A Newton run that stops unconverged prints its diagnostic, not a
    convergence message, and fails."""
    rc = main(["solve", "--tets", "2", "--case", "ex2-ns", "--nu", "0.005"])
    assert rc != 0
    out = capsys.readouterr().out
    assert "Newton diverged" in out
    assert "converged" not in out.replace("not converge", "")


def test_solve_reports_newton_linear_solves(capsys):
    """A converged Newton run prints each step's linear path and its GMRES
    iterations after the iteration count."""
    assert main(["solve", "--tets", "2", "--case", "ex2-ns"]) == 0
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("Newton converged in 3 iterations"))
    head, steps = lines[i + 1].split(": ")
    assert head == "Newton linear solves (path, GMRES iterations)"
    assert [s.split()[0] for s in steps.split(", ")] == ["gmres"] * 3


def test_solve_reports_the_stokes_linear_solve(capsys):
    """A Stokes run prints its one linear solve: the float32 factor of K1
    preconditioning FGMRES ("direct"), and its iterations."""
    assert main(["solve", "--cubes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head, solve = next(line for line in lines if line.startswith("Stokes linear solve")).split(": ")
    assert head == "Stokes linear solve (path, GMRES iterations)"
    path, its = solve.split()
    assert path == "direct" and 0 < int(its) <= KRYLOV_CAP


def test_solve_reports_projections_built(capsys):
    """solve prints how many distinct cell and face projections it built:
    the 2^3 cubes fall in 4 classes of translated cells and 3 of faces, a
    jittered tetra mesh in none."""
    assert main(["solve", "--cubes", "2"]) == 0
    assert "projections built: 4 of 8 cells, 3 of 36 faces" in capsys.readouterr().out.splitlines()
    assert main(["solve", "--tets", "2"]) == 0
    assert "projections built: 48 of 48 cells, 120 of 120 faces" in capsys.readouterr().out.splitlines()


def test_mesh_error_is_one_line(tmp_path, capsys):
    """A mesh file with one mis-signed face is rejected with a one-line error."""
    out = tmp_path / "m.json"
    assert main(["mesh", "gen", "--cubes", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data["cells"][0][0] = -data["cells"][0][0]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["mesh", "check", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: cell 0 is not closed: inconsistent face orientations\n"
