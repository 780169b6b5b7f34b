"""The three benchmark workloads: inputs from a seed, one pass, and probes.

Every workload is closed-loop: one process makes one call at a time. The
seed changes only the values of the generated inputs, never their sizes,
so every seed does the same amount of work. fogctl receives only these
generated inputs. Each pass checks its outputs against an exact reference
and counts failures in a ``Checks`` object instead of raising.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fogctl as fc

# Availability rate of the plants whose closed forms are checked.
P_ON = 0.8

SIZES = {
    "mc-validate": {
        "full": {"n": 4, "s": 2, "m": 2, "N": 16, "R": 100_000, "delay": [2, 1]},
        "tiny": {"n": 2, "s": 1, "m": 1, "N": 6, "R": 2_000, "delay": [2, 1]},
    },
    "exact-analysis": {
        "full": {"big_N": 1000, "big_n": 4, "big_s": 2, "pen_N": 18, "pen_n": 4,
                 "pen_m": 2, "dp_models": 16, "dp_N": 10, "bound_models": 16,
                 "bound_N": 8, "enum_N": 12},
        "tiny": {"big_N": 40, "big_n": 2, "big_s": 1, "pen_N": 8, "pen_n": 2,
                 "pen_m": 1, "dp_models": 4, "dp_N": 5, "bound_models": 4,
                 "bound_N": 5, "enum_N": 6},
    },
    "cli-drone": {
        "full": {"N": 60, "sweep_R": 10_000, "trace_R": 500, "place_N": 30,
                 "place_R": 20_000, "verify_models": 4, "verify_sandwich": 4},
        "tiny": {"N": 12, "sweep_R": 300, "trace_R": 20, "place_N": 14,
                 "place_R": 500, "verify_models": 1, "verify_sandwich": 1},
    },
}

WORKLOAD_IDS = {"mc-validate": 1, "exact-analysis": 2, "cli-drone": 3}

# (regime tag, observation, delayed) in the order mc-validate runs them.
REGIMES = (
    ("full-perfect", "full", False),
    ("full-delayed", "full", True),
    ("partial-perfect", "partial", False),
    ("partial-delayed", "partial", True),
)


class Checks:
    """Counts output checks; a failed check is recorded, never raised.

    ``perturb`` scales every reference value before it is compared, so a
    run with ``perturb != 1`` shows that the checks can fail.
    """

    def __init__(self, perturb: float = 1.0):
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def true(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")
        return ok

    def rel(self, name: str, value: float, reference: float, tol: float) -> bool:
        ref = reference * self.perturb
        err = abs(value - ref) / max(1.0, abs(ref))
        return self.true(name, err <= tol, f"relative error {err:.3e} > {tol:g}")

    def z(self, name: str, mean: float, std_error: float, reference: float,
          zmax: float = 4.0) -> bool:
        ref = reference * self.perturb
        z = (mean - ref) / std_error if std_error > 0 else math.inf
        return self.true(name, abs(z) <= zmax, f"|z| = {abs(z):.2f} > {zmax:g}")


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], *stream])


def _psd(rng, d: int, floor: float) -> np.ndarray:
    X = rng.normal(size=(d, d))
    S = X @ X.T / d + floor * np.eye(d)
    return (S + S.T) / 2.0


def _plant(rng, n: int, s: int, m: int = 0) -> dict:
    """Random well-posed time-invariant plant as plain arrays."""
    out = {
        "A": rng.normal(size=(n, n)) * (0.85 / math.sqrt(n)),
        "B": rng.normal(size=(n, s)),
        "Q": _psd(rng, n, 0.05),
        "R": _psd(rng, s, 0.1),
        "W": _psd(rng, n, 0.05),
    }
    if m:
        out["C"] = rng.normal(size=(m, n))
        out["V_noise"] = _psd(rng, m, 0.2)
    return out


def _stage_plant(rng, n: int, s: int, N: int) -> dict:
    """Random time-varying plant: per-stage (N, ., .) arrays, Q with N+1.

    Each A_k is scaled to spectral norm at most 0.9, so that over a long
    horizon the value matrices stay bounded at every availability rate.
    """
    base = _plant(rng, n, s)
    A = base["A"] + 0.05 * rng.normal(size=(N, n, n))
    A *= np.minimum(1.0, 0.9 / np.linalg.norm(A, ord=2, axis=(1, 2)))[:, None, None]
    return {
        "A": A,
        "B": base["B"] + 0.05 * rng.normal(size=(N, n, s)),
        "Q": np.stack([_psd(rng, n, 0.05) for _ in range(N + 1)]),
        "R": np.broadcast_to(base["R"], (N, s, s)).copy(),
        "W": np.stack([_psd(rng, n, 0.05) for _ in range(N)]),
    }


def _sticky_pair(rng):
    q = float(rng.uniform(0.2, 0.95))
    p = float(rng.uniform(1.0 - q + 0.02, 0.995))
    return p, q


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Generate a workload's inputs from the seed (configs go to workdir)."""
    sz = SIZES[workload][size]
    if workload == "mc-validate":
        rng = _rng(seed, workload)
        return {
            "sizes": sz,
            "plant": _plant(rng, sz["n"], sz["s"], sz["m"]),
            "x0": rng.normal(size=sz["n"]),
            "sim_seed": int(rng.integers(0, 2**31)),
        }
    if workload == "exact-analysis":
        return _exact_inputs(seed, sz)
    return _cli_inputs(seed, sz, workdir)


def _exact_inputs(seed: int, sz: dict) -> dict:
    rng = _rng(seed, "exact-analysis")
    n_cycle = (1, 2, 3, 4)
    dp_cases = []
    for i in range(sz["dp_models"]):
        n = n_cycle[i % 4]
        p = float(rng.uniform(0.05, 0.95))
        delay = [1 + i % 2, (i // 2) % 2] if i % 2 else None
        dp_cases.append({"plant": _plant(rng, n, 1 + i % 2), "N": sz["dp_N"], "p": p,
                         "delay": delay, "x0": rng.normal(size=n), "tau0": (i // 4) % 2})
    bound_cases = []
    for i in range(sz["bound_models"]):
        n = n_cycle[i % 4]
        p, q = _sticky_pair(rng)
        bound_cases.append({"plant": _plant(rng, n, 1 + i % 2), "N": sz["bound_N"],
                            "p": p, "q": q, "delay": [1, i % 2] if i % 2 else None,
                            "x0": rng.normal(size=n)})
    p, q = _sticky_pair(rng)
    enum_case = {"plant": _plant(rng, 3, 2), "N": sz["enum_N"], "p": p, "q": q,
                 "x0": rng.normal(size=3)}
    return {
        "sizes": sz,
        "big": _stage_plant(rng, sz["big_n"], sz["big_s"], sz["big_N"]),
        "big_x0": rng.normal(size=sz["big_n"]),
        "big_p": float(rng.uniform(0.3, 0.95)),
        "pen": _plant(rng, sz["pen_n"], 2, sz["pen_m"]),
        "pen_x0": rng.normal(size=sz["pen_n"]),
        "pen_p": float(rng.uniform(0.3, 0.95)),
        "dp_cases": dp_cases,
        "bound_cases": bound_cases,
        "enum_case": enum_case,
    }


# Endpoint latencies of the placement catalog; the seed draws only p and q.
PLACEMENT_LATENCIES = (0.06, 0.08, 0.5, 0.8, 1.3)


def _cli_inputs(seed: int, sz: dict, workdir: Path) -> dict:
    rng = _rng(seed, "cli-drone")
    N = sz["N"]
    a_st, r_st = N // 6, N // 6
    scenario = {
        "delta_t": 1.0,
        "alpha": float(rng.uniform(0.05, 0.3)),
        "sigma_x": float(rng.uniform(0.05, 0.3)),
        "sigma_v": float(rng.uniform(0.05, 0.3)),
        "plan": {
            "approach": {"target": [float(v) for v in rng.uniform(5.0, 15.0, size=2)],
                         "stages": a_st},
            "circle": {"radius": float(rng.uniform(3.0, 8.0)), "stages": N - a_st - r_st},
            "return": {"stages": r_st},
        },
    }
    sim_seed = int(rng.integers(0, 2**31))
    track = {
        "scenario": scenario,
        "reliability": {"p": 0.9},
        "delay": {"M_F": 2, "M_B": 1},
        "simulation": {"replications": sz["sweep_R"], "master_seed": sim_seed,
                       "sweep": {"p": [0.5, 0.75, 0.9, 1.0], "M": [0, 3]}},
    }
    trace = {
        "scenario": scenario,
        "reliability": {"p": 0.75},
        "delay": {"M_F": 2, "M_B": 1},
        "simulation": {"replications": sz["trace_R"], "master_seed": sim_seed + 1,
                       "record_traces": True},
    }
    plant = _plant(rng, 4, 2, 2)
    system = {k: v.tolist() for k, v in plant.items()}
    system["N"] = sz["place_N"]
    system["x0"] = rng.normal(size=4).tolist()
    catalog = []
    for i, latency in enumerate(PLACEMENT_LATENCIES):
        if i % 2:
            p, q = _sticky_pair(rng)
        else:
            p = float(rng.uniform(0.6, 0.99))
            q = 1.0 - p
        catalog.append({"name": f"endpoint-{i}", "latency_seconds": latency, "p": p, "q": q})
    place = {
        "system": system,
        "reliability": {"p": 0.9},
        "placement": {"catalog": catalog, "delta_t": 0.1, "observation": "partial",
                      "penalty_replications": sz["place_R"], "seed": sim_seed + 2},
    }
    verify = {"verify": {"models": sz["verify_models"], "sandwich": sz["verify_sandwich"],
                         "seed": sim_seed % 10_000}}
    configs = {"track": track, "trace": trace, "place": place, "verify": verify}
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1) + "\n")
    return {"sizes": sz, "configs": configs, "paths": paths, "workdir": workdir,
            "summaries": {}}


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _delay(pair):
    return None if pair is None else fc.DelayProfile(M_F=int(pair[0]), M_B=int(pair[1]))


def _penalty_branches(N: int, delay) -> int:
    """Covariance branches one exact penalty enumeration updates (0 < p < 1)."""
    epochs = N if delay is None else delay.bound_to(N).c
    return 2 ** (epochs - 1) - 1


def closed_form(tr, model, p, delay, observation, x0, tau0=1, penalty_cfg=None):
    """Gain schedule and closed-form cost, one traced span per fogctl call."""
    if delay is None:
        with tr.span("riccati.backward_perfect"):
            sched = fc.backward_recursion_perfect(model, p)
    else:
        with tr.span("riccati.backward_delayed"):
            sched = fc.backward_recursion_delayed(model, p, delay)
    tr.count("riccati.calls")
    penalty = None
    if observation == "partial":
        tag = "partial-perfect" if delay is None else "partial-delayed"
        sched = sched.with_regime(tag)
        if penalty_cfg is None:
            with tr.span("estimation.exact_penalty"), tr.peak("estimation.exact_penalty_peak"):
                penalty = fc.expected_estimation_penalty(model, p, sched, tag)
            tr.count("estimation.exact_branches", _penalty_branches(model.N, delay))
        else:
            with tr.span("estimation.mc_penalty"):
                penalty = fc.expected_estimation_penalty(model, p, sched, tag, penalty_cfg)
    with tr.span("riccati.closed_form"):
        if delay is None and penalty is None:
            cost = fc.min_cost_full_perfect(sched, model, x0, tau0)
        elif delay is None:
            cost = fc.min_cost_partial_perfect(sched, model, x0, tau0, penalty)
        elif penalty is None:
            cost = fc.min_cost_full_delayed(sched, model, x0)
        else:
            cost = fc.min_cost_partial_delayed(sched, model, x0, penalty)
    tr.count("riccati.calls")
    return sched, cost, penalty


def _make_system(tr, N, plant):
    with tr.span("model.make_system"):
        return fc.make_system(N=N, **plant)


# ---------------------------------------------------------------------------
# mc-validate
# ---------------------------------------------------------------------------

def mc_pass(inp: dict, tr, chk: Checks) -> dict:
    """All four regimes on one plant: closed form, then Monte Carlo, |z| <= 4."""
    sz = inp["sizes"]
    x0 = inp["x0"]
    model = _make_system(tr, sz["N"], inp["plant"])
    chain = fc.symmetric_chain(P_ON, tau0=1)
    sim_s = 0.0
    rep_stages = 0
    for i, (tag, observation, delayed) in enumerate(REGIMES):
        delay = _delay(sz["delay"]) if delayed else None
        sched, cost, _ = closed_form(tr, model, P_ON, delay, observation, x0)
        regime = fc.ControllerRegime(observation=observation, gains=sched, delay=delay)
        cfg = fc.SimulationConfig(replications=sz["R"], master_seed=inp["sim_seed"] + i)
        t0 = time.perf_counter()
        with tr.span(f"simulator.run.{tag}"), tr.peak(f"simulator.run_peak.{tag}"):
            res = fc.run(model, chain, delay, regime, cfg, x0=x0)
        sim_s += time.perf_counter() - t0
        tr.count("simulator.calls")
        rep_stages += sz["R"] * sz["N"]
        chk.z(f"{tag} mean vs closed form", res["mean_cost"], res["std_error"], cost.total)
    return {"sim_s": sim_s, "rep_stages": rep_stages}


def mc_probe(inp: dict, tr, chk: Checks) -> dict:
    """Noise generation and chain sampling alone, at the pass's sizes."""
    sz = inp["sizes"]
    with tr.span("simulator.noise_streams"):
        _, _, chain_u = fc.noise_streams(inp["sim_seed"], sz["R"], sz["N"], sz["n"], sz["m"])
    with tr.span("simulator.sample_tau"):
        fc.sample_tau(fc.symmetric_chain(P_ON, tau0=1), chain_u)
    return {"simulator.noise_bytes": sz["R"] * sz["N"] * (sz["n"] + sz["m"] + 1) * 8}


# ---------------------------------------------------------------------------
# exact-analysis
# ---------------------------------------------------------------------------

def gated_policy_cost(plant: dict, V, p: float, x0) -> float:
    """Exact expected cost of u_k = -V_k x_k at ON stages, symmetric chain, tau_0 = 1.

    Written without fogctl: second moments conditioned on the availability
    state. On a symmetric chain the next state is ON with probability p
    whatever the current one, so both conditional moments share one push,
    and the noise enters with the total probability mass, 1.
    """
    A, B, Q, R, W = (plant[k] for k in ("A", "B", "Q", "R", "W"))
    N = len(V)
    mom_off, mom_on = np.zeros((x0.size, x0.size)), np.outer(x0, x0)
    total = 0.0
    for k in range(N):
        VRV = V[k].T @ R[k] @ V[k]
        total += np.trace(Q[k] @ (mom_off + mom_on)) + np.trace(VRV @ mom_on)
        A_on = A[k] - B[k] @ V[k]
        pushed = A[k] @ mom_off @ A[k].T + A_on @ mom_on @ A_on.T + W[k]
        mom_off, mom_on = (1.0 - p) * pushed, p * pushed
    return float(total + np.trace(Q[N] @ (mom_off + mom_on)))


def exact_pass(inp: dict, tr, chk: Checks) -> dict:
    """Long-horizon recursions, exact penalties and an oracle campaign; no Monte Carlo."""
    sz = inp["sizes"]
    # Long horizon: model build, both recursions, the closed forms.
    big = _make_system(tr, sz["big_N"], inp["big"])
    p, x0 = inp["big_p"], inp["big_x0"]
    sched, cost, _ = closed_form(tr, big, p, None, "full", x0)
    ref = gated_policy_cost(inp["big"], sched.V, p, x0)
    chk.rel("long-horizon closed form vs moment reference", ref, cost.total, 1e-8)
    _, dcost, _ = closed_form(tr, big, p, _delay([2, 1]), "full", x0)
    chk.true("long-horizon delayed cost finite", math.isfinite(dcost.total), repr(dcost.total))

    # Exact-enumeration estimation penalties, both partial regimes.
    pen_model = _make_system(tr, sz["pen_N"], inp["pen"])
    for delay in (None, _delay([1, 0])):
        _, _, pen = closed_form(tr, pen_model, inp["pen_p"], delay, "partial", inp["pen_x0"])
        ok = math.isfinite(pen.total) and pen.total >= 0.0 and min(pen.per_stage) >= 0.0
        chk.true("exact penalty finite and nonnegative", ok, repr(pen.total))

    # Closed form vs the DP oracle on small random models.
    for case in inp["dp_cases"]:
        model = _make_system(tr, case["N"], case["plant"])
        delay = _delay(case["delay"])
        tau0 = 1 if delay is not None else case["tau0"]
        _, c, _ = closed_form(tr, model, case["p"], delay, "full", case["x0"], tau0=tau0)
        with tr.span("oracle.dp"):
            oracle = fc.brute_force_min_cost(model, fc.symmetric_chain(case["p"]), delay,
                                             case["x0"], tau0=tau0)
        tr.count("oracle.dp_calls")
        chk.rel("closed form vs DP oracle", oracle, c.total, 1e-8)

    # Sandwich brackets on sticky chains, full observation.
    for case in inp["bound_cases"]:
        model = _make_system(tr, case["N"], case["plant"])
        delay = _delay(case["delay"])
        tag = "full-delayed" if delay is not None else "full-perfect"
        with tr.span("oracle.bound_check"):
            out = fc.bound_check(model, case["p"], case["q"], delay, tag, x0=case["x0"], tau0=1)
        tr.count("oracle.bound_check_attempts")
        tr.count("oracle.bound_check_exact", int(out["method"] == "exact"))
        lo, hi = out["lower"] * chk.perturb, out["upper"] * chk.perturb
        value, tol = out["policy_value"], out["tolerance"]
        chk.true("bound_check bracket holds",
                 out["holds"] and lo <= value + tol and value <= hi + tol,
                 f"{lo} <= {value} <= {hi} (tolerance {tol})")

    # Policy evaluation: moment recursion vs path enumeration.
    case = inp["enum_case"]
    model = _make_system(tr, case["N"], case["plant"])
    with tr.span("policy.sandwich_policy"):
        policy = fc.sandwich_policy(model, case["p"], case["q"])
    tr.count("policy.calls")
    chain = fc.ReliabilityChain(p=case["p"], q=case["q"], tau0=1)
    with tr.span("oracle.moments"):
        moments = fc.evaluate_policy_cost(model, chain, None, policy, case["x0"], tau0=1)
    with tr.span("oracle.enumeration"):
        enum = fc.evaluate_policy_cost(model, chain, None, policy, case["x0"], tau0=1,
                                       method="enumeration")
    tr.count("oracle.enumeration_paths", 2 ** (case["N"] - 1))
    chk.rel("policy moments vs enumeration", enum, moments, 1e-9)
    return {}


# ---------------------------------------------------------------------------
# cli-drone
# ---------------------------------------------------------------------------

# (subcommand, config name, extra arguments) in the order a pass runs them.
CLI_STEPS = (
    ("waypoints", "track", ["--format", "csv"]),
    ("gains", "track", []),
    ("simulate", "track", []),
    ("simulate", "trace", []),
    ("placement", "place", []),
    ("verify", "verify", []),
)


def run_child(argv: list, env: dict, log: Path, timeout: float = 120.0):
    """Run argv to its end; returns (exit code, peak RSS of the child in KiB).

    os.wait4 gives the resource usage of this one child, where getrusage
    would merge every child the benchmark has waited for.
    """
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _out_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


def _placement_basis(out: Path):
    lines = (out / "placement.csv").read_text().splitlines()
    col = lines[0].split(",").index("basis")
    basis = [line.split(",")[col] for line in lines[1:]]
    return sum(b == "exact" for b in basis), len(basis)


def cli_pass(inp: dict, tr, chk: Checks) -> dict:
    """Each subcommand as its own `python -m fogctl.cli` process, one at a time."""
    peak_kib = 0
    for cmd, cfg_name, extra in CLI_STEPS:
        out = inp["workdir"] / f"out-{cmd}-{cfg_name}"
        log = inp["workdir"] / f"log-{cmd}-{cfg_name}.txt"
        argv = [sys.executable, "-m", "fogctl.cli", cmd, "--config",
                str(inp["paths"][cfg_name]), "--out", str(out), *extra]
        with tr.span(f"cli.{cmd}_process"):
            code, rss_kib = run_child(argv, inp["env"], log)
        peak_kib = max(peak_kib, rss_kib)
        if not chk.true(f"{cmd} {cfg_name} exit code 0", code == 0,
                        f"exit {code}: {log.read_text()[-300:]!r}"):
            continue
        tr.count("cli.output_bytes", _out_bytes(out))
        if cmd == "simulate":
            blob = (out / "summary.json").read_bytes()
            first = inp["summaries"].setdefault(cfg_name, blob)
            chk.true(f"summary.json ({cfg_name}) byte-identical across passes", blob == first)
        if cmd == "placement":
            exact, rows = _placement_basis(out)
            tr.count("cli.placement_exact_rows", exact)
            tr.count("cli.placement_rows", rows)
            chk.true("placement ranks every catalog entry",
                     rows == len(inp["configs"]["place"]["placement"]["catalog"]))
    return {"child_peak_kib": peak_kib}


def cli_probe(inp: dict, tr, chk: Checks) -> dict:
    """In-process calls behind the subcommands, then each step through cli.main."""
    from fogctl import cli

    cfg = inp["configs"]["trace"]
    with tr.span("drone.scenario_from_config"):
        scenario = fc.scenario_from_config(cfg["scenario"])
    with tr.span("drone.build_system"):
        model = fc.build_system(scenario)
    x0 = fc.initial_state(scenario)
    delay = _delay([cfg["delay"]["M_F"], cfg["delay"]["M_B"]])
    p = cfg["reliability"]["p"]
    sched, _, _ = closed_form(tr, model, p, delay, "full", x0)
    regime = fc.ControllerRegime(observation="full", gains=sched, delay=delay)
    sim = fc.SimulationConfig(replications=cfg["simulation"]["replications"],
                              master_seed=cfg["simulation"]["master_seed"], record_traces=True)
    with tr.span("simulator.run.traces"):
        res = fc.run(model, fc.symmetric_chain(p, tau0=1), delay, regime, sim, x0=x0)
    tr.count("simulator.calls")
    with tr.span("simulator.tracking_metrics"):
        fc.tracking_metrics(res["traces"], scenario.alpha)
    csv_path = inp["workdir"] / "probe-trace.csv"
    with tr.span("simulator.to_csv"):
        with open(csv_path, "w") as fh:
            res["traces"].to_csv(fh)
    csv_bytes = csv_path.stat().st_size

    place = inp["configs"]["place"]
    pmodel, px0 = fc.system_from_config(place["system"])
    rate = place["placement"]["catalog"][0]["p"]
    pen_cfg = {"method": "monte-carlo", "replications": place["placement"]["penalty_replications"],
               "seed": place["placement"]["seed"]}
    closed_form(tr, pmodel, rate, _delay([1, 0]), "partial", px0, penalty_cfg=pen_cfg)

    for cmd, cfg_name, extra in CLI_STEPS:
        out = inp["workdir"] / f"probe-{cmd}-{cfg_name}"
        argv = [cmd, "--config", str(inp["paths"][cfg_name]), "--out", str(out), *extra]
        sink = io.StringIO()
        with tr.span(f"cli.{cmd}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        chk.true(f"in-process {cmd} {cfg_name} exit code 0", code == 0,
                 f"exit {code}: {sink.getvalue()[-300:]!r}")
    return {"simulator.to_csv_bytes": csv_bytes}


PASSES = {"mc-validate": mc_pass, "exact-analysis": exact_pass, "cli-drone": cli_pass}
PROBES = {"mc-validate": mc_probe, "exact-analysis": lambda inp, tr, chk: {},
          "cli-drone": cli_probe}
