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


def test_digest_commands_only_grow_at_the_end():
    # cli_digests.py's lines compare with those of earlier versions of
    # the script only while its first commands stay as they are: these
    # 558 argv, one per line, are its whole list as first pinned.
    code = (
        "import hashlib, cli_digests; argvs = cli_digests._command_list()[:558]; "
        "print(len(argvs), hashlib.sha256('\\n'.join(' '.join(a) for a in argvs).encode()).hexdigest())"
    )
    path = os.pathsep.join(os.path.join(_REPO, d) for d in ("src", "perfbench", "tools"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["558", "d2fdb3b637b4156acce9e2f0617e083b42f41af165adc34236d89ef4686a7a1b"]
