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
    # Each scan hit's mask is the text value of a vector of its
    # polynomial: the lane oracle must catch a hit that drops its high
    # cells, the per-vector text oracle a record built from the text
    # value unreversed, and the output pins a line that drops its
    # leading zeros.
    _assert_killed(["scan-hit-drops-high-cells", "record-text-unreversed", "enum-text-unpadded"])


def test_listing_mutants_are_killed():
    # The listing's decimation indices, its copies of the even rows, the
    # trace phase of its m-sequence, its reciprocals and its complexity
    # check; the lane-by-lane, trace-phase and listing tests must catch
    # each.
    _assert_killed([
        "decimation-index-added", "even-row-copied-from-wrong-index", "trace-head-without-j-term",
        "reciprocals-dropped", "massey-lanes-without-complexity-check",
    ])


def test_record_mutants_are_killed():
    # A record with its own __init__ keeps it: a generated one in its
    # place drops CaState's and TableRow's validation.
    _assert_killed(["generated-init-replaces-own"])


def _oracle_lines(max_n):
    # The (pair, n) of each line of `oracles.py --max-n max_n`, in order:
    # the stream pair runs to n = 64 whatever max_n.
    return [
        (pair, n) for n in range(2, 65)
        for pair in ("scan", "enum", "jump", "listing", "filter", "stream") if n <= max_n or pair == "stream"
    ]


def test_oracles_agree_to_n8():
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO, "tools", "oracles.py"), "--max-n", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [(pair, int(n), status) for pair, n, status, _ in rows] == [
        (pair, n, "ok") for pair, n in _oracle_lines(8)
    ]
    assert all(len(digest) == 64 for *_, digest in rows)


def test_oracles_report_a_mismatch(monkeypatch, capsys):
    # A scan that drops its last hit must fail the scan pair only, a
    # jump off by one the jump pair only, a listing that drops its
    # first polynomial the listing pair only, filter_stats that counts
    # a survivor as not primitive the filter pair only, and a block
    # stream that drops its last chunk the stream pair only.
    spec = importlib.util.spec_from_file_location("_oracles_for_tests", os.path.join(_REPO, "tools", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    scan, jump, listing = oracles._scan, oracles._cycle_length_jump, oracles.enumerate_primitive
    stats, chunks, FilterStats = oracles.filter_stats, oracles._stream_chunks, oracles.FilterStats
    for name, broken, bad in (
        ("_scan", lambda n, targets: scan(n, targets)[:-1], "scan"),
        ("_cycle_length_jump", lambda rv, seed: (t := jump(rv, seed)) and t + 1, "jump"),
        ("enumerate_primitive", lambda n: listing(n)[1:], "listing"),
        (
            "filter_stats",
            lambda n: (s := stats(n)) and FilterStats(
                n, s.total, s.even_weight, s.zero_constant, s.not_primitive + 1, s.survivors - 1
            ),
            "filter",
        ),
        ("_stream_chunks", lambda *args: list(chunks(*args))[:-1], "stream"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(oracles, name, broken)
            assert oracles.main(["--max-n", "3"]) == 1
        rows = [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()]
        assert rows == [[pair, str(n), "MISMATCH" if pair == bad else "ok"] for pair, n in _oracle_lines(3)]
