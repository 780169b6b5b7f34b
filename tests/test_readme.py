"""The README's Quick start block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md (Quick start)", "exec"), ns)
    assert abs(ns["res"]["mean_cost"] - ns["cost"].total) <= 4 * ns["res"]["std_error"]
