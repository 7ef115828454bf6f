"""Closed-loop benchmark of the vemflow solver.

    python3 perfbench/run.py --workload cubes-stokes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client in one process sends the next
op as soon as the previous one completes; an op is one solve from raw mesh
arrays to a verified solution (see workloads.py).  After set-up and one
warm-up op, ops run in a window of --seconds: a new op starts while one of
median length would still end inside it.  Every op is checked against
reference.json; a mismatch, or a SolverError, LinAlgError or MeshError,
counts the op as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every other op
(the others run untraced, which gives the tracing overhead), reports the
per-layer metrics and writes the span file under perfbench/_out/.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3     # setup_s: imports + median repetition + the warm-up op
TAIL_MIN_OPS = 40     # below this many ops the tail is the slowest op

END_TO_END = (
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("dofs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
)


def cap_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import the workloads against the checkout's own src/vemflow."""
    if not os.path.isfile(os.path.join(SRC, "vemflow", "__init__.py")):
        raise SystemExit(f"no vemflow package under {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)
    import vemflow
    import workloads

    if os.path.dirname(os.path.abspath(vemflow.__file__)) != os.path.join(SRC, "vemflow"):
        raise SystemExit(f"imported vemflow from {vemflow.__file__}, not from {SRC}")
    return workloads


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int, seed: int | None) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": nproc, "blas_threads": int(os.environ[THREAD_VARS[0]]),
        "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "sympy": sympy.__version__,
        "commit": _git_commit(), "seed": seed,
    }


def set_up(wl, workloads, seed: int, tracer) -> list[float]:
    """Run the workload's set-up SETUP_REPEATS times from cold case caches;
    the state of the last repetition is kept."""
    times = []
    for rep in range(SETUP_REPEATS):
        workloads.clear_case_cache()
        if tracer is not None:
            tracer.op = f"setup{rep}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup(seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(time.perf_counter() - t0)
    return times


def one_op(wl, workloads, i: int, reference: dict, tracer=None) -> dict:
    """Run, time and verify op i; traced when a tracer is given."""
    from numpy.linalg import LinAlgError
    from vemflow.flow import SolverError
    from vemflow.meshing import MeshError

    inp = wl.make_input(i)
    if tracer is not None:
        tracer.op = i
        tracer.install()
        root = tracer.begin("op")
    result, reason = None, None
    start = time.perf_counter()
    try:
        result = wl.run_op(inp)
    except (SolverError, LinAlgError, MeshError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
    if result is not None:
        reason = workloads.check(result, reference.get(inp.key))
        if tracer is not None:
            tracer.add("dofspace.ndof", result.ndof)
            tracer.add("flow.newton_iters", result.newton_iters)
            tracer.add("derham.max_div", result.max_div)
    rec = {"id": i, "key": inp.key, "traced": tracer is not None, "seconds": elapsed,
           "ok": reason is None, "reason": reason}
    if result is not None:
        rec.update(vars(result))
    return rec


def run_ops(wl, workloads, seconds: float, tracer, reference: dict) -> tuple[dict, list[dict]]:
    """A warm-up op, then the timed ops of the window; with a tracer every
    other timed op is traced."""
    # the first full-size op of a process grows the heap; a long-running
    # solver pays that once, so it is timed as set-up
    warmup = one_op(wl, workloads, 0, reference)
    records = []
    min_ops = 1 if tracer is None else 2
    t0 = time.perf_counter()
    # start an op only if one of median length still ends within the window
    while len(records) < min_ops or (time.perf_counter() - t0
                                     + statistics.median(r["seconds"] for r in records) <= seconds):
        i = len(records) + 1
        records.append(one_op(wl, workloads, i, reference, tracer if i % 2 else None))
    return warmup, records


def end_to_end(records: list[dict], attempted: list[dict], setup_s: float) -> dict:
    """Timings over the verified timed ops; verified_frac over every op attempted."""
    ok = [r for r in records if r["ok"]]
    times = sorted(r["seconds"] for r in (ok or records))
    n = len(times)
    values = {
        "solve_s_p50": statistics.median(times),
        # the highest percentile with ten ops beyond it
        "solve_s_tail": times[n - 11] if n >= TAIL_MIN_OPS else times[-1],
        "dofs_per_s": sum(r["ndof"] for r in ok) / sum(r["seconds"] for r in ok) if ok else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_frac": sum(r["ok"] for r in attempted) / len(attempted),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    nproc = cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - T_START
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    wl = workloads.make_workload(args.workload)
    setup_times = set_up(wl, workloads, args.seed, tracer)
    warmup, records = run_ops(wl, workloads, args.seconds, tracer, reference)
    setup_s = import_s + statistics.median(setup_times) + warmup["seconds"]

    env = environment(nproc, args.seed)
    attempted = [warmup] + records
    failed = [r for r in attempted if not r["ok"]]
    info = {"workload": args.workload, "env": env, "ops": len(records),
            "fail_frac": len(failed) / len(attempted), "import_s": import_s,
            "setup_repeats_s": setup_times, "warmup_s": warmup["seconds"],
            "tail": "p(1-10/n)" if len(records) >= TAIL_MIN_OPS else "slowest op",
            "failures": [{"key": r["key"], "reason": r["reason"]} for r in failed[:5]]}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        metrics = end_to_end(records, attempted, setup_s)
        for name, m in metrics.items():
            print(f"{name:16s} {m['value']:>14.6g} {m['unit']}")
        print(f"{'fail_frac':16s} {info['fail_frac']:>14.6g} ({len(failed)} of {len(attempted)} ops)")
    else:
        from tracing import print_table, summarise

        trace = {"workload": args.workload, "env": env, "ops": records, **tracer.to_json_dict()}
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        metrics = summarise(trace)
        print_table(trace, metrics)
    with open(os.path.join(OUT, f"result-{stem}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "records": attempted}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(attempted),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
