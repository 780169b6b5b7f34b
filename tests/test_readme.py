"""The README's Quick start block and CLI config example run as written, and
its Public API list is the package's `__all__`."""

import importlib
import re
from pathlib import Path

import fogctl
from fogctl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", readme_section("Quick start"), re.S).group(1)
    ns = {}
    exec(compile(block, "README.md (Quick start)", "exec"), ns)
    assert abs(ns["res"]["mean_cost"] - ns["cost"].total) <= 4 * ns["res"]["std_error"]


def test_cli_config_example_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", readme_section("Command line"), re.S).group(1))
    for argv in (["gains"], ["simulate", "--replications", "200"]):
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path)]) == 0


def test_public_api_list_is_all():
    listed = []
    items = re.findall(r"^- `(fogctl[.\w]*)`:(.*?)(?=\n- |\n\n)", readme_section("Public API"),
                       re.M | re.S)
    for module_name, names in items:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+)`", names):
            assert getattr(fogctl, name) is getattr(module, name), (module_name, name)
            listed.append(name)
    assert sorted(listed) == sorted(fogctl.__all__)
