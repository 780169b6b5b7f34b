"""The README's Quick start block and CLI config example run as written."""

import re
from pathlib import Path

from fogctl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md (Quick start)", "exec"), ns)
    assert abs(ns["res"]["mean_cost"] - ns["cost"].total) <= 4 * ns["res"]["std_error"]


def test_cli_config_example_runs(tmp_path):
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    for argv in (["gains"], ["simulate", "--replications", "200"]):
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path)]) == 0
