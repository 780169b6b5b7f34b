"""The fogctl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; fogctl is imported from ./src,
so there is nothing to build. Workloads: mc-validate, exact-analysis and
cli-drone (see workloads.py and BENCHMARK.json for why each exists).

A run first times set-up in fresh processes, makes the seeded inputs, warms
up on tiny inputs, then repeats passes of the workload for about --seconds.
Every pass checks its outputs; failures are counted, not raised.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, self time per layer and the tracing overhead. Traced passes record
spans, and run tracemalloc around the calls whose peak memory is reported.
Spans are written to .bench_out/ when the run ends.
--smoke runs every workload at tiny sizes in both modes, checks that every
metric is printed with its unit, and checks that a perturbed reference
makes the output checks fail.

For each workload, standard output holds one line per metric (its median,
or for peak_rss_mib of an in-process workload the minimum, with quartiles
and sample count), then a JSON report (seed, sizes, environment), and
then one JSON object with the keys correct, attempted, failed and metrics;
with a single workload that object is the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("mc-validate", "exact-analysis", "cli-drone")
# The tags of workloads.REGIMES, repeated here because workloads imports
# numpy, which must not load before PINNED_ENV below is set.
REGIME_TAGS = ("full-perfect", "full-delayed", "partial-perfect", "partial-delayed")
CLI_COMMANDS = ("gains", "simulate", "verify", "placement", "waypoints")
LAYERS = ("bench", "model", "riccati", "estimation", "policy", "simulator", "oracle",
          "drone", "cli")

# Set for this process and its children before numpy loads; the report
# records them. One BLAS/OpenMP thread, set explicitly so that results do not
# depend on the library default. No madvise(MADV_HUGEPAGE) on numpy arrays:
# whether the kernel then backs them with huge pages depends on the host's
# free memory, which moved the peak RSS of identical passes by up to 6%.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
SETUP_PROBES = 5
# Fresh one-pass processes whose smallest peak RSS is reported for the
# in-process workloads: identical passes in fresh processes peak at a few
# distinct levels up to 6% apart, and the extra memory is never needed.
RSS_PROBES = 3
MIN_PASSES = 3

E2E = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))
# Printed with tracing off but not part of the result object: failed_frac
# is 0 on a correct run (the result carries it as failed / attempted), and
# mc-validate is the only workload that simulates in-process.
E2E_SHOWN = {"failed_frac": "ratio", "sim_rep_stages_per_s": "1/s"}

PER_LAYER = (
    [("pkg.import_s", "s"), ("pkg.import_scipy_linalg_s", "s"),
     ("model.make_system_s", "s"),
     ("riccati.backward_perfect_s", "s"), ("riccati.backward_delayed_s", "s"),
     ("riccati.closed_form_s", "s"), ("riccati.calls", "count"),
     ("estimation.exact_penalty_s", "s"), ("estimation.exact_branches", "count"),
     ("estimation.exact_penalty_peak_mib", "MiB"), ("estimation.mc_penalty_s", "s"),
     ("policy.sandwich_policy_s", "s"), ("policy.calls", "count"),
     ("simulator.calls", "count"), ("simulator.rep_stages_per_s", "1/s"),
     ("simulator.noise_streams_s", "s"), ("simulator.sample_tau_s", "s"),
     ("simulator.noise_bytes", "bytes")]
    + [(f"simulator.run_ns_per_rep_stage.{t}", "ns") for t in REGIME_TAGS]
    + [(f"simulator.loop_ns_per_rep_stage.{t}", "ns") for t in REGIME_TAGS]
    + [("simulator.filter_ns_per_rep_stage", "ns")]
    + [(f"simulator.run_peak_mib.{t}", "MiB") for t in REGIME_TAGS]
    + [("simulator.tracking_metrics_s", "s"), ("simulator.to_csv_s", "s"),
       ("simulator.to_csv_bytes", "bytes"),
       ("oracle.dp_s", "s"), ("oracle.dp_calls", "count"), ("oracle.moments_s", "s"),
       ("oracle.enumeration_s", "s"), ("oracle.enumeration_paths", "count"),
       ("oracle.bound_check_s", "s"), ("oracle.bound_check_exact_frac", "ratio"),
       ("drone.build_system_s", "s"), ("drone.scenario_from_config_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [(f"cli.{c}_process_s", "s") for c in CLI_COMMANDS]
    + [("cli.placement_exact_frac", "ratio"), ("cli.output_bytes", "bytes")]
    + [(f"self_s.{layer}", "s") for layer in LAYERS]
    + [(f"self_frac.{layer}", "ratio") for layer in LAYERS]
    + [("trace.wall_untraced_s", "s"), ("trace.wall_traced_s", "s"),
       ("trace.overhead_s", "s")]
)

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_MAP = [
    ("pkg.*, model.make_system_s", "setup_s", "all"),
    ("model.make_system_s", "wall_s", "exact-analysis"),
    ("riccati.*", "wall_s", "exact-analysis"),
    ("estimation.exact_*", "wall_s, peak_rss_mib", "exact-analysis"),
    ("estimation.mc_penalty_s", "wall_s", "cli-drone"),
    ("policy.*", "wall_s", "exact-analysis"),
    ("simulator.* (noise, tau, run, loop, filter, peaks, rep_stages_per_s)",
     "wall_s, sim_rep_stages_per_s, peak_rss_mib", "mc-validate"),
    ("simulator.tracking_metrics_s, simulator.to_csv_*", "wall_s", "cli-drone"),
    ("oracle.*", "wall_s", "exact-analysis"),
    ("drone.*", "wall_s", "cli-drone"),
    ("cli.*", "wall_s, peak_rss_mib", "cli-drone"),
]

SMOKE_SEED = 7
SMOKE_SECONDS = 0.5


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fogctl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "fogctl_source_sha256": _source_digest(),
        "cpu_pinning": "none: processes run wherever the scheduler places them",
        "cache_dropping": "none: file caches stay warm after the first run",
        "load": "closed loop: one process, one call at a time, no threads of its own",
    }


# ---------------------------------------------------------------------------
# Probes in fresh processes
# ---------------------------------------------------------------------------

def _setup_probe(workload: str, seed: int, size: str, workdir: Path,
                 one_pass: bool = False) -> dict:
    argv = [sys.executable, str(Path(__file__).parent / "setup_probe.py"),
            workload, str(seed), size, str(workdir)] + (["--pass"] if one_pass else [])
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_linalg_import_s() -> float:
    """Cumulative `scipy.linalg` import time inside `import fogctl` (0 if absent)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fogctl"],
                          env=_child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
            return int(parts[1]) / 1e6
    return 0.0


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def _stats(values, unit: str, stat: str = "median") -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    value = values[0] if stat == "min" else statistics.median(values)
    return {"value": value, "stat": stat, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def _timed_pass(run_pass, inputs, tr, chk, infos: list) -> float:
    t0 = time.perf_counter()
    with tr.span("bench.pass"):
        try:
            infos.append(run_pass(inputs, tr, chk))
        except Exception:
            traceback.print_exc()
            chk.true("pass completed", False, "raised; traceback on stderr")
            infos.append({})
    return time.perf_counter() - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", perturb: float = 1.0) -> dict:
    """Set up, warm up, run passes for about `seconds`, and collect metrics."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, size, perturb, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, size, perturb, workdir) -> dict:
    import workloads as wl
    from tracing import Tracer

    setups = [_setup_probe(workload, seed, size, workdir / f"setup-{i}")
              for i in range(SETUP_PROBES)]
    inputs = wl.make_inputs(workload, seed, size, workdir / "inputs")
    warm = wl.make_inputs(workload, seed, "tiny", workdir / "warm")
    inputs["env"] = warm["env"] = _child_env()
    run_pass = wl.PASSES[workload]
    off = Tracer(False)
    run_pass(warm, off, wl.Checks())

    chk = wl.Checks(perturb)
    tracer = Tracer(True)
    untraced, traced, infos, traced_infos = [], [], [], []
    t_start = time.perf_counter()
    while True:
        untraced.append(_timed_pass(run_pass, inputs, off, chk, infos))
        if trace:
            tracer.begin_pass(len(traced))
            traced.append(_timed_pass(run_pass, inputs, tracer, chk, traced_infos))
        elapsed = time.perf_counter() - t_start
        if len(untraced) >= MIN_PASSES and elapsed * (1 + 1 / len(untraced)) > seconds:
            break

    shown = {}
    if not trace:
        shown["setup_s"] = _stats([s["setup_s"] for s in setups], "s")
        shown["wall_s"] = _stats(untraced, "s")
        # A fresh process per sample: a long-lived one keeps the high-water
        # mark of heap fragmentation, which grows with the number of passes.
        if workload == "cli-drone":
            rss = [i["child_peak_kib"] / 1024.0 for i in infos if "child_peak_kib" in i]
            shown["peak_rss_mib"] = _stats(rss, "MiB")
        else:
            probes = [_setup_probe(workload, seed, size, workdir / f"rss-{i}", one_pass=True)
                      for i in range(RSS_PROBES)]
            for probe in probes:
                chk.attempted += probe["attempted"]
                chk.failed += probe["failed"]
            shown["peak_rss_mib"] = _stats([p["peak_rss_kib"] / 1024.0 for p in probes],
                                           "MiB", stat="min")
        shown["failed_frac"] = _stats([chk.failed / max(1, chk.attempted)], "ratio")
        if any("rep_stages" in i for i in infos):
            shown["sim_rep_stages_per_s"] = _stats(
                [i["rep_stages"] / i["sim_s"] for i in infos if "rep_stages" in i], "1/s")
        declared = [name for name, _ in E2E]
    else:
        tracer.begin_pass("probe")
        with tracer.span("bench.probe"):
            probe_extra = wl.PROBES[workload](inputs, tracer, chk)
        shown = _layer_metrics(workload, inputs, tracer, traced, untraced, traced_infos,
                               setups, probe_extra)
        declared = [name for name, _ in PER_LAYER]

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "sizes": inputs["sizes"], "passes": len(untraced),
        "traced_passes": len(traced), "perturb": perturb,
        "checks": {"attempted": chk.attempted, "failed": chk.failed,
                   "failures": chk.failures},
        "environment": environment(),
        "metrics": shown,
    }
    if trace:
        report["layer_map"] = LAYER_MAP
        report["design_checks"] = _design_checks(workload, tracer, traced)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path, {k: report[k] for k in ("workload", "seed", "sizes")})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    final = {
        "correct": chk.failed == 0 and chk.attempted > 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {n: {"value": shown[n]["value"], "unit": shown[n]["unit"]}
                    for n in declared},
    }
    return {"shown": shown, "report": report, "final": final}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layer_metrics(workload, inputs, tracer, traced, untraced, infos, setups,
                   probe_extra) -> dict:
    """Per-layer values, one per traced pass where the pass makes the call.

    A layer the passes do not call is measured once, in the probe after the
    passes; a layer neither calls reads 0.
    """
    passes = range(len(traced))
    fn = [tracer.fn_seconds(i) for i in passes]
    counts = [tracer.counts[i] for i in passes]
    peaks = [tracer.peaks[i] for i in passes]
    selfs = [tracer.self_seconds(i) for i in passes]
    probe_fn = tracer.fn_seconds("probe")
    probe_counts = tracer.counts["probe"]

    def per_pass(name, tables, probe):
        values = [t[name] for t in tables]
        return values if any(values) else [probe[name]]

    def seconds(name):
        return per_pass(name, fn, probe_fn)

    def count(name):
        return per_pass(name, counts, probe_counts)

    def ratio(num, den):
        return [sum(c[num] for c in counts) / max(1, sum(c[den] for c in counts))]

    v = {
        "pkg.import_s": [s["import_s"] for s in setups],
        "pkg.import_scipy_linalg_s": [_scipy_linalg_import_s()],
        "model.make_system_s": seconds("model.make_system"),
        "riccati.backward_perfect_s": seconds("riccati.backward_perfect"),
        "riccati.backward_delayed_s": seconds("riccati.backward_delayed"),
        "riccati.closed_form_s": seconds("riccati.closed_form"),
        "riccati.calls": count("riccati.calls"),
        "estimation.exact_penalty_s": seconds("estimation.exact_penalty"),
        "estimation.exact_branches": count("estimation.exact_branches"),
        "estimation.exact_penalty_peak_mib": [
            p["estimation.exact_penalty_peak"] / 2**20 for p in peaks],
        "estimation.mc_penalty_s": seconds("estimation.mc_penalty"),
        "policy.sandwich_policy_s": seconds("policy.sandwich_policy"),
        "policy.calls": count("policy.calls"),
        "simulator.calls": count("simulator.calls"),
        "simulator.rep_stages_per_s": [
            i["rep_stages"] / i["sim_s"] for i in infos if "rep_stages" in i],
        "simulator.noise_streams_s": [probe_fn["simulator.noise_streams"]],
        "simulator.sample_tau_s": [probe_fn["simulator.sample_tau"]],
        "simulator.noise_bytes": [probe_extra.get("simulator.noise_bytes", 0)],
        "simulator.tracking_metrics_s": [probe_fn["simulator.tracking_metrics"]],
        "simulator.to_csv_s": [probe_fn["simulator.to_csv"]],
        "simulator.to_csv_bytes": [probe_extra.get("simulator.to_csv_bytes", 0)],
        "oracle.dp_s": seconds("oracle.dp"),
        "oracle.dp_calls": count("oracle.dp_calls"),
        "oracle.moments_s": seconds("oracle.moments"),
        "oracle.enumeration_s": seconds("oracle.enumeration"),
        "oracle.enumeration_paths": count("oracle.enumeration_paths"),
        "oracle.bound_check_s": seconds("oracle.bound_check"),
        "oracle.bound_check_exact_frac": ratio("oracle.bound_check_exact",
                                               "oracle.bound_check_attempts"),
        "drone.build_system_s": seconds("drone.build_system"),
        "drone.scenario_from_config_s": seconds("drone.scenario_from_config"),
        "cli.placement_exact_frac": ratio("cli.placement_exact_rows", "cli.placement_rows"),
        "cli.output_bytes": count("cli.output_bytes"),
        "trace.wall_untraced_s": untraced,
        "trace.wall_traced_s": traced,
        # Each traced pass against the untraced pass just before it.
        "trace.overhead_s": [t - u for t, u in zip(traced, untraced)],
    }
    sz = inputs["sizes"]
    rep_stages = sz["R"] * sz["N"] if workload == "mc-validate" else 0
    loop = {}
    for tag in REGIME_TAGS:
        run_ns = [0.0]
        loop[tag] = [0.0]
        if rep_stages:
            side = (probe_fn["simulator.noise_streams"] + probe_fn["simulator.sample_tau"])
            run_ns = [t / rep_stages * 1e9 for t in seconds(f"simulator.run.{tag}")]
            loop[tag] = [r - side / rep_stages * 1e9 for r in run_ns]
        v[f"simulator.run_ns_per_rep_stage.{tag}"] = run_ns
        v[f"simulator.loop_ns_per_rep_stage.{tag}"] = loop[tag]
        v[f"simulator.run_peak_mib.{tag}"] = [p[f"simulator.run_peak.{tag}"] / 2**20
                                              for p in peaks]
    v["simulator.filter_ns_per_rep_stage"] = [
        a - b for a, b in zip(loop["partial-perfect"], loop["full-perfect"])]
    for cmd in CLI_COMMANDS:
        v[f"cli.{cmd}_s"] = [probe_fn[f"cli.{cmd}"]]
        v[f"cli.{cmd}_process_s"] = seconds(f"cli.{cmd}_process")
    for layer in LAYERS:
        v[f"self_s.{layer}"] = [s[layer] for s in selfs]
        v[f"self_frac.{layer}"] = [s[layer] / d for s, d in zip(selfs, traced)]
    return {name: _stats(v[name] or [0.0], unit) for name, unit in PER_LAYER}


# What the traced run must show for each workload to stress what it claims:
# (design quantity, lowest allowed, highest allowed).
DESIGN = {
    "mc-validate": [("simulator_self_frac", 0.8, 1.0),
                    ("model_riccati_estimation_oracle_self_frac", 0.0, 0.05)],
    "exact-analysis": [("model_riccati_estimation_oracle_self_frac", 0.8, 1.0),
                       ("simulator_calls_per_pass", 0, 0)],
    "cli-drone": [("cli_self_frac", 0.8, 1.0)],
}


def _design_checks(workload, tracer, traced) -> dict:
    """Shares of a traced pass that confirm what each workload stresses."""
    selfs = [tracer.self_seconds(i) for i in range(len(traced))]
    exact = ("model", "riccati", "estimation", "oracle")
    out = {
        "simulator_self_frac": _median(s["simulator"] / d for s, d in zip(selfs, traced)),
        "model_riccati_estimation_oracle_self_frac": _median(
            sum(s[layer] for layer in exact) / d for s, d in zip(selfs, traced)),
        "cli_self_frac": _median(s["cli"] / d for s, d in zip(selfs, traced)),
        "simulator_calls_per_pass": _median(
            tracer.counts[i]["simulator.calls"] for i in range(len(traced))),
    }
    out["holds"] = {f"{lo} <= {name} <= {hi}": lo <= out[name] <= hi
                    for name, lo, hi in DESIGN[workload]}
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def emit(result: dict) -> None:
    for name, m in result["shown"].items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']} ({m['stat']} of n={m['n']}; "
              f"q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])})")
    report = result["report"]
    print(json.dumps({"report": report}, sort_keys=True))
    path = OUT / f"report-{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result["final"]))


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def smoke() -> int:
    """Tiny sizes: every metric printed with its unit, and checks that can fail."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(E2E):
        problems.append("BENCHMARK.json end_to_end differs from run.E2E")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in WORKLOADS:
        for trace in (False, True):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                emit(run_workload(workload, SMOKE_SEED, SMOKE_SECONDS, trace, size="tiny"))
            lines = buf.getvalue().splitlines()
            final = json.loads(lines[-1])
            where = f"{workload} trace={int(trace)}"
            expected = list(PER_LAYER) if trace else list(E2E) + [
                (n, u) for n, u in E2E_SHOWN.items()
                if workload == "mc-validate" or n == "failed_frac"]
            for name, unit in expected:
                pattern = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)} ")
                if not any(pattern.match(line) for line in lines):
                    problems.append(f"{where}: {name} not printed with unit {unit}")
            declared = PER_LAYER if trace else E2E
            if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(final)}")
            if {n: m["unit"] for n, m in final["metrics"].items()} != dict(declared):
                problems.append(f"{where}: result metrics differ from the declared ones")
            if not final["correct"] or final["failed"]:
                problems.append(f"{where}: {final['failed']} of {final['attempted']} checks failed")
            print(f"smoke {where}: {final['attempted']} checks, {final['failed']} failed")

    # Negative case: closed forms scaled by 1.01 inside the checks must fail.
    with contextlib.redirect_stdout(io.StringIO()):
        bad = run_workload("exact-analysis", SMOKE_SEED, SMOKE_SECONDS, False, size="tiny",
                           perturb=1.01)
    frac = bad["shown"]["failed_frac"]["value"]
    print(f"smoke exact-analysis perturbed by 1.01: failed_frac = {frac}")
    if not frac > 0:
        problems.append("perturbed references did not drive failed_frac above 0")

    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The fogctl benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-test of all workloads instead of a measurement")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "fogctl" / "__init__.py").is_file():
        print(f"perfbench: no fogctl sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Before numpy is imported here or in any child process.
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        emit(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
