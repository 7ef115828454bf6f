"""Spans and counters for the traced benchmark run, and the per-layer summary.

The traced run wraps module attributes of the vemflow package from here, for
the duration of a traced op only; nothing under src/ is edited.  Each span
records [name, start, end, parent span index, op id].  Spans and counters
are kept in memory and written to a span file when the run ends.

A layer's self time is its span's duration minus the time covered by its
child spans; `other_s` is the self time of the op's root span, the part of
the op that no layer span covers.

Print the per-layer table of a span file:

    python3 perfbench/tracing.py perfbench/_out/spans-tets-ns-seed1.json
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# (module, attribute, span name): the layer boundaries the traced run wraps
SPANS = (
    ("vemflow.meshing", "PolyMesh", "meshing.build"),
    ("vemflow.dofspace", "build_dof_maps", "dofspace.maps"),
    ("vemflow.projection", "build_face_projections", "projection.face"),
    ("vemflow.projection", "build_cell_projection", "projection.cell"),
    ("vemflow.quadrature", "face_quadrature", "quadrature.face"),
    ("vemflow.quadrature", "cell_quadrature", "quadrature.cell"),
    ("vemflow.forms", "assemble", "forms.assemble"),
    ("vemflow.flow", "assemble_convection", "forms.convection"),
    ("vemflow.flow", "solve_stokes", "flow.stokes"),
    ("vemflow.flow", "solve_navier_stokes", "flow.newton"),
    ("vemflow.bench", "error_h1_velocity", "bench.errors"),
    ("vemflow.bench", "error_l2_pressure", "bench.errors"),
    ("vemflow.derham", "check_divfree", "derham.divfree"),
    ("vemflow.cases", "make_case", "cases.build"),
)

# (module, attribute, counter): calls counted without a span
COUNTED_CALLS = (
    ("vemflow.polynomials", "_MonomialBasis.eval", "polynomials.eval_calls"),
    ("vemflow.polynomials", "_MonomialBasis.eval_grad", "polynomials.eval_calls"),
    ("vemflow.forms", "local_convection", "forms.convection_calls"),
)

# span name -> (counter, size of the span's result)
RESULT_COUNTS = {
    "quadrature.cell": ("quadrature.cell_points", lambda rule: len(rule.weights)),
}

# span name -> per-layer metric holding the span's self time
SELF_TIME = {
    "op": "other_s",
    "meshing.build": "meshing.build_s",
    "dofspace.maps": "dofspace.maps_s",
    "quadrature.cell": "quadrature.cell_s",
    "quadrature.face": "quadrature.face_s",
    "projection.face": "projection.face_s",
    "projection.cell": "projection.cell_s",
    "forms.assemble": "forms.assemble_s",
    "forms.convection": "forms.convection_s",
    "flow.stokes": "flow.stokes_s",
    "flow.newton": "flow.newton_self_s",
    "bench.errors": "bench.errors_s",
    "derham.divfree": "derham.divfree_s",
    "cases.build": "cases.build_s",
}

# every per-layer metric with its unit, in table order
PER_LAYER = (
    ("meshing.build_s", "s"),
    ("dofspace.maps_s", "s"),
    ("dofspace.ndof", "count"),
    ("quadrature.cell_s", "s"),
    ("quadrature.face_s", "s"),
    ("quadrature.cell_points", "count"),
    ("polynomials.eval_calls", "count"),
    ("projection.face_s", "s"),
    ("projection.cell_s", "s"),
    ("projection.cells", "count"),
    ("forms.assemble_s", "s"),
    ("forms.convection_s", "s"),
    ("forms.convection_calls", "count"),
    ("flow.stokes_s", "s"),
    ("flow.newton_self_s", "s"),
    ("flow.newton_iters", "count"),
    ("bench.errors_s", "s"),
    ("derham.divfree_s", "s"),
    ("derham.max_div", "1"),
    ("cases.build_s", "s"),
    ("other_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans and per-op counters; `op` names the op being run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, n: float) -> None:
        per_op = self.counts.setdefault(str(self.op), {})
        per_op[name] = per_op.get(name, 0) + n

    def _spanned(self, fn, name: str):
        measure = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if measure is not None:
                self.add(measure[0], measure[1](out))
            return out

        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced attribute; undone by uninstall()."""
        for table, wrap in ((SPANS, self._spanned), (COUNTED_CALLS, self._counted)):
            for module, path, name in table:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def to_json_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def per_op_metrics(spans: list, counts: dict) -> dict:
    """Per-layer values of every op or set-up repetition that has spans:
    self times summed by metric, span-derived counts and recorded counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, parent, op), inner in zip(spans, child_time):
        vals = out.setdefault(str(op), {})
        metric = SELF_TIME[name]
        vals[metric] = vals.get(metric, 0.0) + (end - start) - inner
        if name == "projection.cell":
            vals["projection.cells"] = vals.get("projection.cells", 0) + 1
    for op, vals in counts.items():
        out.setdefault(op, {}).update(vals)
    return out


def summarise(trace: dict) -> dict:
    """Per-layer metrics of a traced run: the median over traced ops, and
    for cases.build_s the median over the set-up repetitions."""
    per_op = per_op_metrics(trace["spans"], trace["counts"])
    traced = [str(r["id"]) for r in trace["ops"] if r["traced"]]
    setups = [op for op in per_op if op.startswith("setup")]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "cases.build_s":
            vals = [per_op[op].get(name, 0.0) for op in setups]
        elif name == "trace.overhead_frac":
            on = [r["seconds"] for r in trace["ops"] if r["traced"]]
            off = [r["seconds"] for r in trace["ops"] if not r["traced"]]
            vals = [statistics.median(on) / statistics.median(off) - 1.0] if on and off else []
        else:
            vals = [per_op.get(op, {}).get(name, 0) for op in traced]
        if not vals:
            raise ValueError(f"span file has no values for {name}")
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
    return metrics


def print_table(trace: dict, metrics: dict) -> None:
    """Per-layer table; time metrics also as a share of the traced median op."""
    op_s = statistics.median(r["seconds"] for r in trace["ops"] if r["traced"])
    print(f"# per-layer medians over {sum(r['traced'] for r in trace['ops'])} traced ops "
          f"of {trace['workload']} (median op {op_s:.4f} s)")
    for name, m in metrics.items():
        share = ""
        if m["unit"] == "s" and name != "cases.build_s":
            share = f"{100 * m['value'] / op_s:6.1f}%"
        print(f"{name:26s} {m['value']:>14.6g} {m['unit']:6s} {share}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracing.py SPAN_FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        trace = json.load(fh)
    print_table(trace, summarise(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
