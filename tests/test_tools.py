"""Smoke test of the repository's measuring and checking tools."""

import importlib.util
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


def _mutants():
    # tools/mutants.py, loaded from its file.
    spec = importlib.util.spec_from_file_location("_mutants_for_tests", os.path.join(_REPO, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_old_text_occurs_once():
    mutants = _mutants()
    assert mutants.MUTANTS
    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert mutants.misplaced() == []


def _assert_killed(names):
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO, "tools", "mutants.py"), *names],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{name}\tkilled" for name in names]


def test_power_kernel_mutants_are_killed():
    _assert_killed(["square-without-spread", "times-x-unreduced"])


def test_lane_start_mutants_are_killed():
    # The scan's lanes start from one _charpoly_bits call each; the
    # oracle tests must catch a wrong p_cells or a wrong p_{cells-1}.
    _assert_killed(["lane-prev-from-one-half", "lane-seed-one-cell-short"])


def test_enum_text_mutants_are_killed():
    # enum prints each vector from its reversed mask, which is also the
    # sort key; the output pins must catch the wrong mask or a sort key
    # that drops the high cells.
    _assert_killed(["enum-text-from-mask", "sort-key-drops-high-cells"])


def test_listing_mutants_are_killed():
    # The listing's decimation indices and its complexity check; the
    # lane-by-lane oracle tests must catch either.
    _assert_killed(["decimation-index-added", "massey-lanes-without-complexity-check"])
