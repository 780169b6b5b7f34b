"""Time one fresh process's set-up: `import fogctl`, then a workload's inputs.

Usage: setup_probe.py WORKLOAD SEED SIZE WORKDIR [--pass] (fogctl must be
importable, for example through PYTHONPATH). Prints one JSON object with
`import_s` and `setup_s`, both measured from just before `import fogctl`.
With --pass the process then runs one untraced pass of the workload and
also reports its own peak resident memory as `peak_rss_kib`, with the
pass's output checks (`attempted`, `failed`).
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import fogctl  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload, seed, size, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
inputs = workloads.make_inputs(workload, seed, size, workdir)
t2 = time.perf_counter()
out = {"import_s": t1 - t0, "setup_s": t2 - t0}
if sys.argv[5:] == ["--pass"]:
    import resource
    import traceback

    from tracing import Tracer

    checks = workloads.Checks()
    try:
        workloads.PASSES[workload](inputs, Tracer(False), checks)
    except Exception:
        traceback.print_exc()
        checks.true("pass completed", False)
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["failed"] = checks.failed
    out["attempted"] = checks.attempted
print(json.dumps(out))
