"""Write reference.json: eH1u, eL2p, Newton iterations and max div(u_h) for
every input an op of any workload can get.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are trusted; the benchmark compares
every op against these values (workloads.check).  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, cap_threads, environment, import_package


def main() -> int:
    nproc = cap_threads()
    workloads = import_package()
    entries = {}
    bad = []
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name)
        t0 = time.perf_counter()
        for inp in wl.reference_inputs():
            res = wl.run_op(inp)
            entries[inp.key] = {"eH1u": res.eH1u, "eL2p": res.eL2p,
                                "newton_iters": res.newton_iters, "max_div": res.max_div}
            if not res.max_div <= workloads.DIV_TOL:
                bad.append(f"{inp.key}: max div {res.max_div:.3e}")
        print(f"{name}: {len(entries)} entries so far, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    if bad:
        print("inputs that fail the divergence gate:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(nproc, None), "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
