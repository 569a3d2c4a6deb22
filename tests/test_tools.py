"""Smoke test of the repository's measuring tools."""

import os
import subprocess
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_code_lines_total_is_the_sum_of_the_modules():
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO, "tools", "code_lines.py"), os.path.join(_REPO, "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert sorted(name for _, name in modules) == sorted(
        name for name in os.listdir(os.path.join(_REPO, "src", "maxca")) if name.endswith(".py")
    )
    assert all(int(count) > 0 for count, _ in modules)
    assert int(total) == sum(int(count) for count, _ in modules)
