"""Command-line front end: config ingestion, orchestration, result files.

Subcommands: gains, simulate, verify, placement, waypoints. Every command is
deterministic given (config, seed): output files are byte-identical across
reruns. Exit codes: 0 success, 2 config error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .drone import (
    CONTROLLER_MODES,
    _compensates_drift,
    build_system as drone_build_system,
    initial_state,
    scenario_from_config,
)
from .model import (
    ConfigError,
    DelayProfile,
    ModelValidationError,
    ReliabilityChain,
    bind_delay,
    choice,
    config_block,
    count,
    delay_from_config,
    flag,
    listed,
    make_system,
    number,
    reliability_from_config,
    symmetric_chain,
    system_from_config,
)
from .estimation import penalty_config_for
from .oracle import bound_check, brute_force_min_cost
from .policy import min_cost, sandwich_policy, solve
from .simulator import SimulationConfig, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3

_TOP_KEYS = {"system", "reliability", "delay", "scenario", "simulation", "verify", "placement"}

# Example endpoint catalog. Latencies follow the published service-execution
# measurements (local node through Tokyo); the reliability pairs are
# illustrative symmetric values, not measurements.
EXAMPLE_CATALOG = [
    {"name": "local-node", "latency_seconds": 0.06, "p": 0.999, "q": 0.001},
    {"name": "azure-functions-us-east", "latency_seconds": 0.08, "p": 0.995, "q": 0.005},
    {"name": "aws-lambda-us-east", "latency_seconds": 0.5, "p": 0.99, "q": 0.01},
    {"name": "aws-lambda-us-west", "latency_seconds": 0.8, "p": 0.985, "q": 0.015},
    {"name": "aws-lambda-tokyo", "latency_seconds": 1.3, "p": 0.98, "q": 0.02},
]


def latency_to_stages(latency_seconds: float, delta_t: float) -> int:
    """Stage count covering a latency: ceil(latency/delta_t), float-tolerant."""
    if not (0 < delta_t < math.inf):
        raise ConfigError(f"delta_t must be finite and positive, got {delta_t}")
    if not (0 <= latency_seconds / delta_t < math.inf):
        raise ConfigError(
            f"latency must be finite and nonnegative, got {latency_seconds} s at delta_t {delta_t} s"
        )
    return max(0, math.ceil(latency_seconds / delta_t - 1e-12))


def split_delay(M: int, M_F: Optional[int] = None, M_B: Optional[int] = None) -> Optional[DelayProfile]:
    """Split a round-trip stage count into forward/backward parts.

    Default split puts the extra stage forward (M_F = ceil(M/2)), so M >= 1
    always has M_F >= 1. Explicit overrides must sum to M.
    """
    if M == 0:
        return None
    if M_F is None and M_B is None:
        M_F = (M + 1) // 2
        M_B = M - M_F
    elif M_F is None:
        M_F = M - M_B
    elif M_B is None:
        M_B = M - M_F
    if M_F < 0 or M_B < 0 or M_F + M_B != M:
        raise ConfigError(f"delay split M_F={M_F}, M_B={M_B} does not sum to M={M}")
    return DelayProfile(M_F=M_F, M_B=M_B)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    return cfg


def _plant_from(cfg: dict):
    """Returns (model, x0, scenario-or-None) from system or scenario block."""
    has_sys = "system" in cfg
    has_scn = "scenario" in cfg
    if has_sys == has_scn:
        raise ConfigError("config needs exactly one of 'system' or 'scenario'")
    if has_sys:
        model, x0 = system_from_config(cfg["system"])
        return model, x0, None
    scenario = scenario_from_config(cfg["scenario"])
    return drone_build_system(scenario), initial_state(scenario), scenario


def _delay_from(cfg: dict, N: int) -> Optional[DelayProfile]:
    return bind_delay(delay_from_config(cfg.get("delay")), N)


def _sweep_delay(entry) -> Optional[DelayProfile]:
    """A sweep M entry: a round-trip stage count or an [M_F, M_B] pair."""
    if isinstance(entry, list) and len(entry) == 2:
        M_F, M_B = count(entry[0]), count(entry[1])
        return split_delay(M_F + M_B, M_F, M_B)
    return split_delay(count(entry))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gains(config: dict, out_dir: Path) -> dict:
    """Run the applicable backward recursion and dump the schedule."""
    model, _, _ = _plant_from(config)
    chain = reliability_from_config(config.get("reliability", {}))
    payload = solve(model, chain.p, _delay_from(config, model.N)).gains.to_jsonable()
    _write_json(out_dir / "gains.json", payload)
    return payload


def cmd_simulate(
    config: dict,
    out_dir: Path,
    seed: Optional[int] = None,
    replications: Optional[int] = None,
) -> dict:
    """Closed-loop Monte Carlo; writes summary.json (+ trace.csv if asked).

    With simulation.sweep ({"p": [...], "M": [...]}) one summary row per
    (delay, availability) pair is produced; sweep entries use symmetric
    chains. M entries are round-trip stage counts (default forward-heavy
    split) or explicit [M_F, M_B] pairs.
    """
    model, x0, scenario = _plant_from(config)
    sim = config_block("simulation", config.get("simulation", {}), {
        "replications": count, "master_seed": count, "record_traces": flag,
        "observation": choice("full", "partial"), "mode": choice(*CONTROLLER_MODES),
        "sweep": None,
    })
    reps = sim.get("replications", 10_000) if replications is None else replications
    master_seed = sim.get("master_seed", 0) if seed is None else seed
    record = sim.get("record_traces", False)
    observation = sim.get("observation", "full")
    mode = sim.get("mode", "paper-faithful")
    compensate = _compensates_drift(mode)

    base_chain = reliability_from_config(config.get("reliability", {}))
    base_delay = _delay_from(config, model.N)
    grid = config_block("simulation.sweep", sim.get("sweep", {}), {
        "p": listed(number, "numbers"),
        "M": listed(_sweep_delay, "stage counts or [M_F, M_B] pairs"),
    })
    if grid:
        p_values = grid.get("p", [base_chain.p])
        delays = grid.get("M", [base_delay])
        settings = [(p, d, True) for d in delays for p in p_values]
    else:
        settings = [(base_chain.p, base_delay, False)]
    if record and len(settings) > 1:
        raise ConfigError("record_traces requires a single-point configuration (no sweep)")

    points = []
    for p, delay, from_sweep in settings:
        chain = symmetric_chain(p, tau0=base_chain.tau0) if from_sweep else base_chain
        points.append((chain, delay, solve(model, p, delay, observation, compensate)))
    sim_cfg = SimulationConfig(replications=reps, master_seed=master_seed, record_traces=record)
    alpha = scenario.alpha if scenario is not None else None
    results = sweep(model, points, sim_cfg, x0=x0, alpha=alpha)
    rows = []
    for (chain, delay, _), res in zip(points, results):
        row = {
            "p": chain.p,
            "q": chain.q,
            "M": delay.M if delay is not None else 0,
            "observation": observation,
            "mean_cost": res["mean_cost"],
            "std_error": res["std_error"],
        }
        if scenario is not None:
            row["mode"] = mode
            row.update(res["tracking"])
        rows.append(row)
    if record:
        with open(out_dir / "trace.csv", "w") as fh:
            results[0]["traces"].to_csv(fh)
    summary = {
        "rows": rows,
        "replications": reps,
        "master_seed": master_seed,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def _random_verify_model(rng):
    """Small random well-posed model for the self-check campaigns."""
    n = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    N = int(rng.integers(3, 9))
    A = rng.normal(size=(n, n)) * (0.9 / math.sqrt(n))
    B = rng.normal(size=(n, s))

    def _pd(d, floor):
        X = rng.normal(size=(d, d))
        return X @ X.T / d + floor * np.eye(d)

    model = make_system(
        A=A, B=B, Q=_pd(n, 0.05), R=_pd(s, 0.1), W=_pd(n, 0.05), N=N
    )
    x0 = rng.normal(size=n)
    return model, x0


def cmd_verify(config: dict, out_dir: Path, seed: Optional[int] = None) -> int:
    """Self-check campaigns: closed form vs oracle, and sandwich bounds.

    Writes verify.json and returns the exit code (0 all pass, 3 otherwise).
    """
    block = config_block("verify", config.get("verify", {}), {
        "models": count, "sandwich": count, "seed": count, "tolerance": number,
    })
    n_models = block.get("models", 40)
    n_sandwich = block.get("sandwich", 40)
    tol = block.get("tolerance", 1e-8)
    vseed = block.get("seed", 0) if seed is None else seed
    rng = np.random.default_rng(vseed)

    consistency = []
    all_pass = True
    for i in range(n_models):
        model, x0 = _random_verify_model(rng)
        p = float(rng.uniform(0.05, 0.95))
        chain = symmetric_chain(p, tau0=1)

        closed = min_cost(model, solve(model, p), x0, 1).total
        oracle_value = brute_force_min_cost(model, chain, None, x0, tau0=1)
        rel = abs(closed - oracle_value) / max(1.0, abs(oracle_value))
        ok = rel <= tol
        all_pass &= ok
        consistency.append(
            {"check": "matched", "index": i, "p": p, "closed_form": closed,
             "oracle": oracle_value, "rel_error": rel, "pass": ok}
        )

        M_F = int(rng.integers(0, 3))  # M_F = 0 checks the first-gate closed form
        M_B = int(rng.integers(0 if M_F else 1, 2))  # M >= 1
        if M_F + M_B <= model.N - 1:
            delay = DelayProfile(M_F=M_F, M_B=M_B)
            closed_d = min_cost(model, solve(model, p, delay), x0).total
            oracle_d = brute_force_min_cost(model, chain, delay, x0, tau0=1)
            rel_d = abs(closed_d - oracle_d) / max(1.0, abs(oracle_d))
            ok_d = rel_d <= tol
            all_pass &= ok_d
            consistency.append(
                {"check": "delayed", "index": i, "p": p, "M": M_F + M_B, "M_F": M_F,
                 "closed_form": closed_d, "oracle": oracle_d,
                 "rel_error": rel_d, "pass": ok_d}
            )

    sandwich = []
    for i in range(n_sandwich):
        model, x0 = _random_verify_model(rng)
        q = float(rng.uniform(0.2, 0.95))
        p = float(rng.uniform(1.0 - q + 0.02, 0.995))
        use_delay = bool(rng.integers(0, 2)) and model.N >= 3
        if use_delay:
            delay = DelayProfile(M_F=1, M_B=int(rng.integers(0, 2)))
            if delay.M > model.N - 1:
                delay = DelayProfile(M_F=1, M_B=0)
            tag = "full-delayed"
        else:
            delay = None
            tag = "full-perfect"
        res = bound_check(model, p, q, delay, tag, x0=x0, tau0=1)
        all_pass &= res["holds"]
        sandwich.append(
            {"index": i, "p": p, "q": q, "regime": tag,
             "M": int(delay.M) if delay else 0, **res}
        )

    report = {
        "seed": vseed,
        "tolerance": tol,
        "consistency": consistency,
        "sandwich": sandwich,
        "all_pass": bool(all_pass),
    }
    _write_json(out_dir / "verify.json", report)
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_placement(
    config: dict,
    out_dir: Path,
    seed: Optional[int] = None,
    replications: Optional[int] = None,
) -> list:
    """Rank candidate endpoints by closed-form expected cost.

    Symmetric endpoints get the exact minimum cost. Sticky endpoints
    (p > 1 - q) are ranked by the proven upper bound, the symmetric cost of
    `sandwich_policy`'s rate-(1-q) gains; anything else falls back to the
    pessimistic-rate estimate min(p, 1-q) and is labeled as such. The
    penalty_basis column names the estimation penalty: none (full
    observation), exact-enumeration or, above EXACT_ENUMERATION_MAX_N
    stages, monte-carlo.
    """
    model, x0, scenario = _plant_from(config)
    block = config_block("placement", config.get("placement", {}), {
        "catalog": None, "delta_t": number, "observation": choice("full", "partial"),
        "penalty_replications": count, "seed": count,
    })
    catalog = block.get("catalog", EXAMPLE_CATALOG)
    if not (isinstance(catalog, list) and catalog):
        raise ConfigError(f"placement.catalog must be a nonempty list, got {catalog!r}")
    delta_t = block.get("delta_t", scenario.delta_t if scenario is not None else 1.0)
    observation = block.get("observation", "full")
    pen_reps = block.get("penalty_replications", 20_000) if replications is None else replications
    pen_seed = block.get("seed", 0) if seed is None else seed
    pen_cfg = penalty_config_for(model.N, pen_reps, pen_seed)
    penalty_basis = pen_cfg["method"] if observation == "partial" else "none"

    rows = []
    for i, entry in enumerate(catalog):
        where = f"placement.catalog[{i}]"
        e = config_block(where, entry, {
            "name": str, "latency_seconds": number, "p": number, "q": number,
            "M_F": count, "M_B": count,
        }, required=("name", "latency_seconds", "p", "q"))
        name, latency, p, q = e["name"], e["latency_seconds"], e["p"], e["q"]
        try:
            chain = ReliabilityChain(p=p, q=q)
        except ModelValidationError as err:
            raise ConfigError(f"{where}: {err}") from None
        M = latency_to_stages(latency, delta_t)
        if M > model.N:
            raise ConfigError(f"endpoint {name!r}: M={M} exceeds horizon N={model.N}")
        delay = split_delay(M, e.get("M_F"), e.get("M_B"))
        if chain.symmetric:
            basis, regime = "exact", solve(model, p, delay, observation)
        elif p > 1.0 - q:
            basis, regime = "upper-bound", sandwich_policy(model, p, q, delay, observation)
        else:  # p < 1 - q: the pessimistic rate min(p, 1 - q) is p
            basis, regime = "pessimistic-estimate", solve(model, p, delay, observation)
        breakdown = min_cost(model, regime, x0, 1, pen_cfg)
        rows.append(
            {
                "name": name,
                "latency_seconds": latency,
                "M": M,
                "M_F": delay.M_F if delay else 0,
                "M_B": delay.M_B if delay else 0,
                "p": p,
                "q": q,
                "basis": basis,
                "cost": breakdown.total,
                "initial_state_term": breakdown.initial_state_term,
                "disturbance_trace_sum": breakdown.disturbance_trace_sum,
                "collateral_trace_sum": breakdown.collateral_trace_sum,
                "estimation_penalty": breakdown.estimation_penalty,
                "penalty_basis": penalty_basis,
            }
        )
    rows.sort(key=lambda r: (r["cost"], r["name"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank

    columns = [
        "rank", "name", "latency_seconds", "M", "M_F", "M_B", "p", "q",
        "basis", "cost", "initial_state_term", "disturbance_trace_sum",
        "collateral_trace_sum", "estimation_penalty", "penalty_basis",
    ]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    (out_dir / "placement.csv").write_text("\n".join(lines) + "\n")
    return rows


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_waypoints(config: dict, out_dir: Path, fmt: str = "csv") -> Path:
    """Emit the scenario's waypoint sequence as `k,x,y` CSV (or JSON)."""
    if "scenario" not in config:
        raise ConfigError("waypoints command needs a 'scenario' block")
    scenario = scenario_from_config(config["scenario"])
    pts = np.asarray(scenario.waypoints)
    if fmt == "json":
        path = out_dir / "waypoints.json"
        _write_json(path, {"waypoints": [[float(x), float(y)] for x, y in pts]})
        return path
    path = out_dir / "waypoints.csv"
    lines = ["k,x,y"]
    for k, (x, y) in enumerate(pts):
        lines.append(f"{k},{float(x)!r},{float(y)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _count_arg(text: str) -> int:
    """A --seed or --replications value: a whole number >= 0, else argparse exits 2."""
    try:
        return count(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 0, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogctl",
        description="Optimal virtualized control over fog networks: gains, simulation, verification, placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gains": "compute a gain schedule and write gains.json",
        "simulate": "run closed-loop Monte Carlo and write summary.json",
        "verify": "run closed-form-vs-oracle and bound campaigns, write verify.json",
        "placement": "rank endpoint candidates by closed-form cost, write placement.csv",
        "waypoints": "generate the scenario waypoint path, write waypoints.csv",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=(name != "verify"), help="path to the JSON config")
        sp.add_argument("--out", default=".", help="output directory")
        if name in ("simulate", "verify", "placement"):
            sp.add_argument("--seed", type=_count_arg, default=None, help="override the config seed")
        if name in ("simulate", "placement"):
            sp.add_argument("--replications", type=_count_arg, default=None, help="override replication count")
        if name == "waypoints":
            sp.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "gains":
            cmd_gains(config, out_dir)
        elif args.command == "simulate":
            cmd_simulate(config, out_dir, seed=args.seed, replications=args.replications)
        elif args.command == "verify":
            return cmd_verify(config, out_dir, seed=args.seed)
        elif args.command == "placement":
            cmd_placement(config, out_dir, seed=args.seed, replications=args.replications)
        elif args.command == "waypoints":
            cmd_waypoints(config, out_dir, fmt=args.format)
    except (ConfigError, ModelValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
