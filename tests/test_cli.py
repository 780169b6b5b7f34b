"""Command-line interface: configs, outputs, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fogctl as fc
from fogctl import cli


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def scalar_config(N=1, p=1.0, x0=1.0, **extra):
    cfg = {
        "system": {"N": N, "A": 1.0, "B": 1.0, "Q": 1.0, "R": 1.0, "W": 1.0, "x0": [x0]},
        "reliability": {"p": p, "q": 1.0 - p},
    }
    cfg.update(extra)
    return cfg


def scenario_config(**scenario):
    plan = {
        "approach": {"target": [2.0, 0.0], "stages": 1},
        "circle": {"radius": 1.0, "stages": 4},
        "return": {"stages": 2},
    }
    return {"scenario": {"plan": plan, **scenario}, "reliability": {"p": 0.9}}


def edited(cfg, keys, value):
    """cfg with the entry at the key path set to value (blocks made as needed)."""
    block = cfg
    for key in keys[:-1]:
        block = block.setdefault(key, {})
    block[keys[-1]] = value
    return cfg


def system_config():
    return scalar_config(N=4, p=0.9)


def waypoints_config():
    return {"scenario": {"waypoints": [[0, 0], [1, 0], [2, 0]]}}


# (command, base config, key path, malformed value, text naming the entry)
MALFORMED_ENTRIES = {
    "replications-non-numeric":
        ("simulate", system_config, "simulation.replications", "x", "simulation.replications"),
    "master_seed-non-numeric":
        ("simulate", system_config, "simulation.master_seed", "x", "simulation.master_seed"),
    "penalty_replications-non-numeric":
        ("placement", system_config, "placement.penalty_replications", "x",
         "placement.penalty_replications"),
    "seed-non-numeric": ("verify", dict, "verify.seed", "x", "verify.seed"),
    "models-non-numeric": ("verify", dict, "verify.models", "x", "verify.models"),
    "tolerance-non-numeric": ("verify", dict, "verify.tolerance", "x", "verify.tolerance"),
    "M_F-non-numeric": ("gains", system_config, "delay", {"M_F": "x", "M_B": 1}, "delay.M_F"),
    "delta_t-non-numeric":
        ("waypoints", scenario_config, "scenario.delta_t", "x", "scenario.delta_t"),
    "alpha-non-numeric": ("gains", scenario_config, "scenario.alpha", "x", "scenario.alpha"),
    "stages-non-numeric":
        ("waypoints", scenario_config, "scenario.plan.approach.stages", "x",
         "scenario.plan.approach.stages"),
    "radius-non-numeric":
        ("waypoints", scenario_config, "scenario.plan.circle.radius", "x",
         "scenario.plan.circle.radius"),
    "replications-fractional":
        ("simulate", system_config, "simulation.replications", 2.7, "simulation.replications"),
    "M_F-fractional": ("gains", system_config, "delay", {"M_F": 1.5, "M_B": 1}, "delay.M_F"),
    "models-negative": ("verify", dict, "verify.models", -5, "verify.models"),
    "seed-negative": ("placement", system_config, "placement.seed", -1, "placement.seed"),
    "record_traces-string":
        ("simulate", system_config, "simulation.record_traces", "no", "simulation.record_traces"),
    "p-bool": ("gains", system_config, "reliability.p", True, "reliability.p"),
    "sweep-p-non-list":
        ("simulate", system_config, "simulation.sweep.p", 0.5, "simulation.sweep.p"),
    "sweep-p-non-numeric":
        ("simulate", system_config, "simulation.sweep.p", [0.5, "x"], "simulation.sweep.p"),
    "sweep-M-non-numeric":
        ("simulate", system_config, "simulation.sweep.M", [0, "x"], "simulation.sweep.M"),
    "simulation-non-object": ("simulate", system_config, "simulation", 5, "simulation"),
    "reliability-non-object": ("gains", system_config, "reliability", [0.9], "reliability"),
    "catalog-entry-non-object":
        ("placement", system_config, "placement.catalog", [5], "placement.catalog[0]"),
    "catalog-non-list":
        ("placement", system_config, "placement.catalog", {"name": "e"}, "placement.catalog"),
    "catalog-p-above-one":
        ("placement", system_config, "placement.catalog",
         [{"name": "e", "latency_seconds": 0.0, "p": 1.5, "q": 0.1}], "placement.catalog[0]"),
    "catalog-q-negative":
        ("placement", system_config, "placement.catalog",
         [{"name": "e", "latency_seconds": 0.0, "p": 0.9, "q": -3.0}], "placement.catalog[0]"),
    "start_velocity-scalar":
        ("gains", scenario_config, "scenario.start_velocity", 1.0, "scenario.start_velocity"),
    "target-scalar":
        ("waypoints", scenario_config, "scenario.plan.approach.target", 5,
         "scenario.plan.approach.target"),
    "waypoints-non-numeric":
        ("waypoints", waypoints_config, "scenario.waypoints", [["a", 0], [1, 0]],
         "scenario: waypoints"),
    "delta_t-nan":
        ("gains", scenario_config, "scenario.delta_t", float("nan"), "scenario.delta_t"),
}


class TestHelpers:
    def test_latency_to_stages(self):
        assert cli.latency_to_stages(0.0, 1.0) == 0
        assert cli.latency_to_stages(1.3, 1.0) == 2
        assert cli.latency_to_stages(1.0, 0.5) == 2  # exact multiples stay exact
        assert cli.latency_to_stages(1.01, 0.5) == 3
        with pytest.raises(fc.ConfigError):
            cli.latency_to_stages(-1.0, 1.0)
        with pytest.raises(fc.ConfigError):
            cli.latency_to_stages(1.0, 0.0)

    def test_split_delay(self):
        assert cli.split_delay(0) is None
        d = cli.split_delay(3)
        assert (d.M_F, d.M_B) == (2, 1)  # forward-heavy default
        d1 = cli.split_delay(1)
        assert (d1.M_F, d1.M_B) == (1, 0)
        d2 = cli.split_delay(4, M_F=1)
        assert (d2.M_F, d2.M_B) == (1, 3)
        with pytest.raises(fc.ConfigError, match="does not sum"):
            cli.split_delay(3, M_F=1, M_B=1)

    def test_exit_codes(self):
        assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_VERIFY) == (0, 2, 3)


class TestGains:
    def test_scalar_gains_file(self, tmp_path):
        cfg_path = write_config(tmp_path, scalar_config())
        rc = cli.main(["gains", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "gains.json").read_text())
        assert payload["regime"] == "full-perfect"
        assert payload["K"][0][0][0] == pytest.approx(1.5)
        assert payload["V"][0][0][0] == pytest.approx(0.5)

    def test_delayed_gains_carry_delay(self, tmp_path):
        cfg = scalar_config(N=4, p=0.5, delay={"M_F": 1, "M_B": 1})
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["gains", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "gains.json").read_text())
        assert payload["regime"] == "full-delayed"
        assert payload["delay"] == {"M_F": 1, "M_B": 1}
        assert len(payload["P"]) == 3  # collateral weights run through stage cM


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["gains", "placement"])
    @pytest.mark.parametrize("block,message", [
        ({"A": [1.0, 0.5]}, "error: system:"),
        ({"A": [[1.0, "x"]]}, "error: system:"),
        ({"A": [[1, 2], [1]]}, "error: system:"),
        ({"N": "x"}, "error: system.N must be a whole number"),
        ({"N": 2.5}, "error: system.N must be a whole number"),
        ({"A": [[float("nan")]]}, "error: system:"),
        ({"x0": [float("nan")]}, "error: system:"),
    ], ids=["A-1d", "A-non-numeric", "A-ragged", "N-non-numeric", "N-fractional", "A-nan",
         "x0-nan"])
    def test_malformed_system_block(self, tmp_path, capsys, command, block, message):
        cfg = scalar_config(N=4, p=0.9)
        cfg["system"].update(block)
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gains.json").exists()
        assert not (tmp_path / "placement.csv").exists()

    def test_huge_horizon_exits_2(self, tmp_path):
        # N = 10^8 asks for about 5 GiB of stage arrays; the child's address
        # space is capped at 600 MiB, so the stacking itself runs out of memory
        cfg_path = write_config(tmp_path, scalar_config(N=100_000_000, p=0.9))
        limit = 600 * 2**20
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from fogctl import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(fc.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", code, "gains", "--config", cfg_path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 2, proc.stderr
        assert err == [err[0]] and err[0].startswith("error: system: N = 100000000: ")
        assert "MiB" in err[0]
        assert not (tmp_path / "out" / "gains.json").exists()

    @pytest.mark.parametrize("case", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES.keys())
    def test_malformed_entry(self, tmp_path, capsys, case):
        command, base, keys, value, path = case
        cfg_path = write_config(tmp_path, edited(base(), keys.split("."), value))
        out = tmp_path / "out"
        rc = cli.main([command, "--config", cfg_path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith("error:") and path in err[0]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["gains", "placement"])
    def test_overflowing_recursion(self, tmp_path, capsys, command):
        cfg = scalar_config(N=4, p=0.9)
        cfg["system"]["A"] = 1e200
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith("error: non-finite value matrix at stage 3")
        assert not (tmp_path / "gains.json").exists()
        assert not (tmp_path / "placement.csv").exists()

    @pytest.mark.parametrize("command,edit,message", [
        ("gains", {"reliability": {"p": "x"}}, "reliability.p must be a number"),
        ("simulate", {"reliability": {"p": 0.5, "q": "x"}}, "reliability.q must be a number"),
        ("placement", {"placement": {"delta_t": float("nan")}}, "delta_t must be finite"),
        ("placement", {"placement": {"delta_t": "x"}}, "placement.delta_t must be a number"),
        ("placement", {"placement": {"catalog": [
            {"name": "e", "latency_seconds": float("nan"), "p": 0.9, "q": 0.1}]}},
         "placement.catalog[0].latency_seconds must be finite"),
        ("placement", {"placement": {"catalog": [
            {"name": "e", "latency_seconds": 1.0, "p": "x", "q": 0.1}]}},
         "placement.catalog[0].p must be a number"),
    ], ids=["p-non-numeric", "q-non-numeric", "delta_t-nan", "delta_t-non-numeric",
            "latency-nan", "catalog-p-non-numeric"])
    def test_config_value_errors(self, tmp_path, capsys, command, edit, message):
        cfg = scalar_config(N=4, p=0.9)
        cfg.update(edit)
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith("error:") and message in err[0]

    @pytest.mark.parametrize("command,flag", [
        ("gains", ["--seed", "3"]),
        ("gains", ["--replications", "9"]),
        ("gains", ["--format", "json"]),
        ("verify", ["--replications", "9"]),
        ("placement", ["--format", "json"]),
        ("waypoints", ["--seed", "3"]),
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        cfg_path = write_config(tmp_path, scalar_config())
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", cfg_path, "--out", str(tmp_path), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("command,flag", [
        ("verify", ["--seed", "-1"]),
        ("simulate", ["--seed", "2.5"]),
        ("placement", ["--seed", "x"]),
        ("simulate", ["--replications", "-3"]),
        ("placement", ["--replications", "1e3"]),
    ])
    def test_non_whole_count_flag_rejected(self, tmp_path, capsys, command, flag):
        # verify --seed -1 used to end in numpy's ValueError traceback
        cfg_path = write_config(tmp_path, scalar_config())
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out"), *flag])
        assert exit_info.value.code == 2
        assert f"argument {flag[0]}: must be a whole number >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_reliability_p_required(self, tmp_path, capsys):
        cfg = {"system": scalar_config()["system"]}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["gains", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "reliability: missing keys ['p']" in capsys.readouterr().err

    def test_q_defaults_to_complement(self, tmp_path):
        cfg = scalar_config(N=3, p=0.8)
        del cfg["reliability"]["q"]
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                       "--replications", "50"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rows"][0]["q"] == pytest.approx(0.2)

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**scalar_config(), "extra": 1})
        rc = cli.main(["gains", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown top-level keys" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc = cli.main(["gains", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["gains", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_system_and_scenario_exclusive(self, tmp_path, capsys):
        cfg = scalar_config()
        cfg["scenario"] = {"waypoints": [[0, 0], [1, 0]]}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["gains", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "exactly one of 'system' or 'scenario'" in capsys.readouterr().err


class TestSimulate:
    def test_summary_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, scalar_config(N=4, p=0.7))
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            rc = cli.main(["simulate", "--config", cfg_path, "--out", str(d),
                           "--replications", "200"])
            assert rc == 0
        assert (a_dir / "summary.json").read_bytes() == (b_dir / "summary.json").read_bytes()

    def test_seed_override_changes_result(self, tmp_path):
        cfg_path = write_config(tmp_path, scalar_config(N=4, p=0.7))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", cfg_path, "--out", str(a_dir),
                  "--replications", "200"])
        cli.main(["simulate", "--config", cfg_path, "--out", str(b_dir),
                  "--replications", "200", "--seed", "99"])
        a = json.loads((a_dir / "summary.json").read_text())
        b = json.loads((b_dir / "summary.json").read_text())
        assert a["rows"][0]["mean_cost"] != b["rows"][0]["mean_cost"]
        assert b["master_seed"] == 99

    def test_mean_tracks_closed_form(self, tmp_path):
        cfg = scalar_config(N=1, p=1.0)
        cfg["simulation"] = {"replications": 4000, "master_seed": 3}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        row = json.loads((tmp_path / "summary.json").read_text())["rows"][0]
        assert abs(row["mean_cost"] - 2.5) <= 4 * row["std_error"]

    def test_record_traces_writes_csv(self, tmp_path):
        cfg = scalar_config(N=3, p=0.6)
        cfg["simulation"] = {"replications": 2, "record_traces": True}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "rep,k,tau,x0,u0,cost_stage"
        assert len(lines) == 1 + 2 * 4

    def test_sweep_rows(self, tmp_path):
        cfg = scalar_config(N=6, p=0.5)
        cfg["simulation"] = {
            "replications": 60,
            "sweep": {"p": [0.4, 0.8], "M": [0, 2, [1, 2]]},
        }
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "summary.json").read_text())["rows"]
        assert len(rows) == 6
        assert [r["M"] for r in rows] == [0, 0, 2, 2, 3, 3]
        assert [r["p"] for r in rows] == [0.4, 0.8, 0.4, 0.8, 0.4, 0.8]

    def test_sweep_with_traces_rejected(self, tmp_path, capsys):
        cfg = scalar_config(N=4, p=0.5)
        cfg["simulation"] = {"record_traces": True, "sweep": {"p": [0.2, 0.8]}}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "single-point configuration" in capsys.readouterr().err

    def test_unknown_simulation_key(self, tmp_path, capsys):
        cfg = scalar_config(N=3)
        for block in ({"repz": 7}, {"estimation": "kalman"}):
            cfg["simulation"] = block
            cfg_path = write_config(tmp_path, cfg)
            rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
            assert rc == 2
            assert "simulation: unknown keys" in capsys.readouterr().err

    def test_scenario_rows_carry_tracking_metrics(self, tmp_path):
        cfg = {
            "scenario": {
                "plan": {
                    "approach": {"target": [3.0, 0.0], "stages": 3},
                    "circle": {"radius": 2.0, "stages": 8},
                    "return": {"stages": 3},
                }
            },
            "reliability": {"p": 0.9, "q": 0.1},
            "simulation": {"replications": 50, "mode": "affine-compensated"},
        }
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        row = json.loads((tmp_path / "summary.json").read_text())["rows"][0]
        assert row["mode"] == "affine-compensated"
        assert "rms_position_error" in row and "max_deviation" in row

    def test_scenario_memory_flat_in_replications(self, tmp_path, monkeypatch):
        # the tracking metrics are streamed block by block: ten times the
        # replications adds only each point's totals, position MSE and energy
        # vectors, plus two vectors of standard-error temporaries
        from fogctl import simulator

        cfg = {
            "scenario": {"plan": {"approach": {"target": [6.0, 2.0], "stages": 2},
                                  "circle": {"radius": 3.0, "stages": 8},
                                  "return": {"stages": 2}}},
            "reliability": {"p": 0.9},
            "delay": {"M_F": 2, "M_B": 1},
            "simulation": {"master_seed": 5, "sweep": {"p": [0.5, 0.9], "M": [0, 3]}},
        }
        model = fc.build_system(fc.scenario_from_config(cfg["scenario"]))
        N, n, s, m = model.N, model.state_dim, model.control_dim, model.obs_dim
        per_rep = 8 * N * (n + m + 1) + 8 * ((N + 1) * n + N * s)
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 50 * per_rep)  # 50-row blocks
        R, points = 400, 4
        peaks = []
        for reps in (R, 10 * R):
            tracemalloc.start()
            try:
                cli.cmd_simulate(cfg, tmp_path, replications=reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(json.loads((tmp_path / "summary.json").read_text())["rows"]) == points
        assert peaks[1] - peaks[0] <= 9 * R * 8 * (3 * points + 2)


class TestVerify:
    def test_small_campaign_passes(self, tmp_path):
        cfg = {"verify": {"models": 6, "sandwich": 4, "seed": 1}}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_pass"] is True
        assert len(report["sandwich"]) == 4
        assert len(report["consistency"]) >= 6
        assert all(c["pass"] for c in report["consistency"])

    def test_campaign_checks_first_gate_at_stage_zero(self, tmp_path):
        # delayed profiles draw M_F from {0, 1, 2} with M >= 1: the M_F = 0
        # closed form, whose first gate reads tau0, is checked against the oracle
        rc = cli.cmd_verify({"verify": {"models": 6, "sandwich": 0, "seed": 1}}, tmp_path)
        assert rc == 0
        delayed = [c for c in json.loads((tmp_path / "verify.json").read_text())["consistency"]
                   if c["check"] == "delayed"]
        assert any(c["M_F"] == 0 for c in delayed)
        assert all(c["pass"] and 0 <= c["M_F"] <= 2 and c["M"] >= max(1, c["M_F"])
                   for c in delayed)

    def test_runs_without_config(self, tmp_path):
        # --config is optional for verify; keep the campaign tiny via seed
        # defaults by invoking the command function directly
        rc = cli.cmd_verify({"verify": {"models": 3, "sandwich": 2}}, tmp_path)
        assert rc == 0

    def test_corrupted_schedule_detected(self, tmp_path, monkeypatch):
        solve = cli.solve

        def flip_control_benefit(*args, **kwargs):
            regime = solve(*args, **kwargs)
            gains = dataclasses.replace(
                regime.gains, Lambda=tuple(np.asarray(-X) for X in regime.gains.Lambda)
            )
            return dataclasses.replace(regime, gains=gains)

        monkeypatch.setattr(cli, "solve", flip_control_benefit)
        rc = cli.cmd_verify({"verify": {"models": 5, "sandwich": 0, "seed": 2}}, tmp_path)
        assert rc == cli.EXIT_VERIFY
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_pass"] is False
        assert any(not c["pass"] for c in report["consistency"])

    def test_unknown_verify_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"verify": {"modelz": 2}})
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "verify: unknown keys" in capsys.readouterr().err


class TestPlacement:
    def test_default_catalog_ranking(self, tmp_path):
        cfg = scalar_config(N=12, p=0.9, x0=0.0)
        cfg["placement"] = {"delta_t": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["placement", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "placement.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "rank", "name", "latency_seconds", "M", "M_F", "M_B", "p", "q",
            "basis", "cost", "initial_state_term", "disturbance_trace_sum",
            "collateral_trace_sum", "estimation_penalty", "penalty_basis",
        ]
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["rank"] for r in rows] == [str(i) for i in range(1, 6)]
        costs = [float(r["cost"]) for r in rows]
        assert costs == sorted(costs)
        by_name = {r["name"]: r for r in rows}
        # round-trip stage counts at 0.5 s per stage
        assert by_name["local-node"]["M"] == "1"
        assert by_name["aws-lambda-us-west"]["M"] == "2"
        assert by_name["aws-lambda-tokyo"]["M"] == "3"
        assert all(r["basis"] == "exact" for r in rows)
        assert all(r["penalty_basis"] == "none" for r in rows)
        assert rows[0]["name"] == "local-node"

    def test_perfect_endpoint_wins(self, tmp_path):
        cfg = scalar_config(N=8, p=0.9, x0=0.0)
        cfg["placement"] = {
            "catalog": [
                {"name": "ideal", "latency_seconds": 0.0, "p": 1.0, "q": 0.0},
                {"name": "lossy", "latency_seconds": 0.0, "p": 0.6, "q": 0.4},
                {"name": "slow", "latency_seconds": 2.0, "p": 1.0, "q": 0.0},
            ]
        }
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["placement", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "placement.csv").read_text().strip().split("\n")
        first = lines[1].split(",")
        assert first[1] == "ideal" and first[3] == "0"

    def test_basis_labels(self, tmp_path):
        cfg = scalar_config(N=6, p=0.9, x0=0.0)
        cfg["placement"] = {
            "catalog": [
                {"name": "sym", "latency_seconds": 0.0, "p": 0.7, "q": 0.3},
                {"name": "sticky", "latency_seconds": 0.0, "p": 0.9, "q": 0.3},
                {"name": "flaky", "latency_seconds": 0.0, "p": 0.4, "q": 0.3},
            ]
        }
        cfg_path = write_config(tmp_path, cfg)
        rows = cli.cmd_placement(cli._load_config(cfg_path), tmp_path)
        basis = {r["name"]: r["basis"] for r in rows}
        assert basis == {
            "sym": "exact", "sticky": "upper-bound", "flaky": "pessimistic-estimate"
        }

    def test_delay_exceeding_horizon_rejected(self, tmp_path, capsys):
        cfg = scalar_config(N=1, p=0.9, x0=0.0)
        cfg["placement"] = {"delta_t": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["placement", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "exceeds horizon" in capsys.readouterr().err

    def test_explicit_split_override(self, tmp_path):
        cfg = scalar_config(N=8, p=0.9, x0=0.0)
        cfg["placement"] = {
            "catalog": [
                {"name": "custom", "latency_seconds": 3.0, "p": 0.9, "q": 0.1,
                 "M_F": 1, "M_B": 2},
            ]
        }
        cfg_path = write_config(tmp_path, cfg)
        rows = cli.cmd_placement(cli._load_config(cfg_path), tmp_path)
        assert rows[0]["M_F"] == 1 and rows[0]["M_B"] == 2

    def test_zero_forward_delay_costed_from_tau0(self, tmp_path):
        # an M_F = 0 endpoint is served at stage 0, where placement starts
        # the endpoint ON: its cost is the closed form at tau0 = 1
        cfg = scalar_config(N=8, p=0.6, x0=1.0)
        cfg["placement"] = {"delta_t": 1.0, "catalog": [
            {"name": "edge", "latency_seconds": 2.0, "p": 0.6, "q": 0.4, "M_F": 0},
        ]}
        rows = cli.cmd_placement(cli._load_config(write_config(tmp_path, cfg)), tmp_path)
        assert (rows[0]["M_F"], rows[0]["M_B"]) == (0, 2)
        model, x0 = fc.system_from_config(cfg["system"])
        regime = fc.solve(model, 0.6, fc.DelayProfile(M_F=0, M_B=2))
        assert rows[0]["cost"] == fc.min_cost(model, regime, x0, tau0=1).total
        assert rows[0]["cost"] != fc.min_cost(model, regime, x0, tau0=0).total

    def test_ranking_invariant_under_disturbance_scaling(self, tmp_path):
        # at x0 = 0 every cost is a weighted trace sum, linear in W, so a
        # uniform disturbance rescale cannot reorder endpoints
        def run_with_w(w):
            cfg = {
                "system": {"N": 10, "A": 1.0, "B": 1.0, "Q": 1.0, "R": 1.0,
                           "W": w, "x0": [0.0]},
                "reliability": {"p": 0.9, "q": 0.1},
                "placement": {"delta_t": 1.0},
            }
            cfg_path = write_config(tmp_path, cfg, name=f"w{w}.json")
            return cli.cmd_placement(cli._load_config(cfg_path), tmp_path)

        base = run_with_w(1.0)
        scaled = run_with_w(7.0)
        assert [r["name"] for r in base] == [r["name"] for r in scaled]
        for a, b in zip(base, scaled):
            assert b["cost"] == pytest.approx(7.0 * a["cost"], rel=1e-12)

    @staticmethod
    def partial_placement(tmp_path, N, seed):
        cfg = {
            "system": {"N": N, "A": 1.0, "B": 1.0, "Q": 1.0, "R": 1.0, "W": 1.0, "C": 1.0,
                       "V_noise": 0.5, "x0": [1.0]},
            "reliability": {"p": 0.9},
            "placement": {"observation": "partial", "delta_t": 1.0, "penalty_replications": 200,
                          "catalog": [{"name": "e", "latency_seconds": 1.0, "p": 0.9, "q": 0.1}]},
        }
        out = tmp_path / f"N{N}-seed{seed}"
        rc = cli.main(["placement", "--config", write_config(tmp_path, cfg), "--out", str(out),
                       "--seed", str(seed)])
        assert rc == 0
        return (out / "placement.csv").read_text()

    def test_penalty_basis_follows_horizon(self, tmp_path):
        # exact enumeration up to N = EXACT_ENUMERATION_MAX_N, so the cost
        # does not depend on the Monte Carlo seed; Monte Carlo above that
        exact = self.partial_placement(tmp_path, 10, 0)
        assert exact == self.partial_placement(tmp_path, 10, 1)
        assert exact.splitlines()[1].endswith(",exact-enumeration")
        assert fc.estimation.EXACT_ENUMERATION_MAX_N < 21
        mc = self.partial_placement(tmp_path, 21, 0)
        assert mc.splitlines()[1].endswith(",monte-carlo")
        assert mc != self.partial_placement(tmp_path, 21, 1)

    def test_catalog_entry_validation(self, tmp_path, capsys):
        cfg = scalar_config(N=4, p=0.9, x0=0.0)
        cfg["placement"] = {"catalog": [{"name": "x", "latency_seconds": 0.1}]}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["placement", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "missing key" in capsys.readouterr().err


class TestWaypoints:
    def scenario_cfg(self):
        return {
            "scenario": {
                "plan": {
                    "approach": {"target": [2.0, 0.0], "stages": 1},
                    "circle": {"radius": 1.0, "stages": 4},
                    "return": {"stages": 2},
                }
            }
        }

    def test_csv_output(self, tmp_path):
        cfg_path = write_config(tmp_path, self.scenario_cfg())
        rc = cli.main(["waypoints", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "waypoints.csv").read_text().strip().split("\n")
        assert lines[0] == "k,x,y"
        assert len(lines) == 9
        k, x, y = lines[2].split(",")
        assert (k, float(x), float(y)) == ("1", 1.0, 0.0)

    def test_json_output(self, tmp_path):
        cfg_path = write_config(tmp_path, self.scenario_cfg())
        rc = cli.main(["waypoints", "--config", cfg_path, "--out", str(tmp_path),
                       "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "waypoints.json").read_text())
        assert len(data["waypoints"]) == 8

    def test_needs_scenario(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, scalar_config())
        rc = cli.main(["waypoints", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 2
        assert "needs a 'scenario' block" in capsys.readouterr().err
