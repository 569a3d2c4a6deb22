"""Tests of the benchmark itself: oracles, seeding and trace hygiene.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from maxca import CaState, RuleVector, cli, stream_bits  # noqa: E402


class FakeLauncher:
    """Runs each command in-process instead of as a child, then lets
    `corrupt(args, stdout, out_path)` damage its output."""

    def __init__(self, workdir, corrupt):
        self.workdir = str(workdir)
        self.corrupt = corrupt

    def run(self, argv):
        if argv[1] == "-c":  # `import maxca` or the reference child
            return run.Child(argv, 0.01, 0.01, 0, 10.0, b"", b"")
        args = tuple(argv[3:])
        wall, code, stdout, _ = layertrace.run_inprocess(cli.main, args, self.workdir)
        out_path = os.path.join(self.workdir, args[args.index("--out") + 1]) if "--out" in args else None
        return run.Child(argv, wall, wall, code, 10.0, self.corrupt(args, stdout, out_path), b"")


def _timed(workload, tmp_path, corrupt):
    record = {"inputs": {}, "commands": [], "failures": []}
    return run.timed_run(workload, 0, 1, FakeLauncher(tmp_path, corrupt), record)


@pytest.fixture
def small_stream(monkeypatch):
    monkeypatch.setattr(workloads, "STREAM_PACKED_BITS", 4096)
    monkeypatch.setattr(workloads, "STREAM_ASCII_BITS", 1000)


def _flip_bit(args, stdout, out_path):
    if out_path and "--ascii" not in args:
        with open(out_path, "r+b") as f:
            f.seek(40)
            byte = f.read(1)[0]
            f.seek(40)
            f.write(bytes([byte ^ 0x04]))
    return stdout


def test_intact_stream_passes(small_stream, tmp_path):
    _, _, attempted, failed = _timed("stream", tmp_path, lambda args, stdout, out_path: stdout)
    assert attempted >= 2 and failed == 0


def test_flipped_stream_bit_is_counted_as_failed(small_stream, tmp_path):
    metrics, lines, attempted, failed = _timed("stream", tmp_path, _flip_bit)
    # The packed stream runs first, and the first failure ends the run.
    assert (attempted, failed) == (1, 1)
    assert metrics["failed_frac"][0] == 1.0
    assert any("recurrence" in line for line in lines)


def test_flipped_ascii_bit_fails_the_oracle():
    inputs = workloads.make_inputs("stream", 3)
    bits = 500
    rv, state = RuleVector(inputs["rules"]), CaState.from_string(inputs["seed_state"])
    text = "".join(f"{b}\n" for b in stream_bits(rv, state, bits, inputs["tap"])).encode()
    check = partial(workloads.check_stream, inputs["rules"], inputs["seed_state"], inputs["tap"], bits, True)
    assert check(0, b"", text) is None
    flipped = bytearray(text)
    flipped[2 * 300] ^= 1  # '0' <-> '1'
    assert "recurrence" in check(0, b"", bytes(flipped))
    flipped = bytearray(text)
    flipped[0] ^= 1
    assert "first" in check(0, b"", bytes(flipped))


def test_dropped_enum_row_is_counted_as_failed(tmp_path):
    def drop_row(args, stdout, out_path):
        if args[0] != "enum":
            return stdout
        lines = stdout.splitlines(keepends=True)
        return b"".join(lines[:100] + lines[101:])

    metrics, lines, attempted, failed = _timed("search", tmp_path, drop_row)
    assert (attempted, failed) == (1, 1)
    assert any("FAILED enum" in line and "rows" in line for line in lines)


def test_intact_audit_passes(tmp_path):
    metrics, _, attempted, failed = _timed("audit", tmp_path, lambda args, stdout, out_path: stdout)
    assert failed == 0 and attempted % 44 == 0
    assert metrics["setup_s"][0] == pytest.approx(run.REFERENCE_S)  # import and reference both 0.01 s


def test_wrong_order_of_x_fails_the_primitive_oracle():
    poly = "10011"  # x^4 + x + 1
    want = workloads.primitive_text(poly)
    assert "order of x: 15 of 15\n" in want
    assert workloads.check_text(want, 0, want.encode(), None) is None
    wrong = want.replace("order of x: 15", "order of x: 5")
    assert workloads.check_text(want, 0, wrong.encode(), None) is not None


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 11)
        assert a == workloads.make_inputs(workload, 11)
        assert json.loads(json.dumps(a)) == a
        assert [c.args for c in workloads.commands(workload, a)] == [
            c.args for c in workloads.commands(workload, workloads.make_inputs(workload, 11))
        ]
    for workload in ("stream", "audit"):
        assert workloads.make_inputs(workload, 11) != workloads.make_inputs(workload, 12)


def _wrapped_names():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in layertrace.WRAPS
    }


def test_trace_leaves_module_attributes_unchanged(tmp_path):
    before = _wrapped_names()
    tracer = layertrace.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    with layertrace.patched(tracer):
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
        for args in (
            ("enum", "--n", "6", "--jobs", "1", "--format", "tsv"),
            ("primpoly-list", "--n", "5"),
            ("verify-tables", "--n", "4"),
            ("primitive", "--poly", "100011101"),
            ("cycle", "--rules", "1101"),
            ("stream", "--rules", "1101", "--bits", "64", "--out", "s.bin"),
        ):
            _, code, _, _ = layertrace.run_inprocess(main, args, str(tmp_path))
            assert code == 0
    assert _wrapped_names() == before
    assert all(_wrapped_names()[k] is f for k, f in before.items())
    values = layertrace.layer_values(tracer)
    assert values["enumerator.candidates"] == 64
    assert values["tables.verify_row_calls"] > 0
    assert values["automaton.cycle_steps"] > 0
    assert values["gf2poly.pow_x_mod_calls"] > 0


def test_trace_restores_names_when_a_command_raises():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with layertrace.patched(layertrace.Tracer()):
            raise RuntimeError("boom")
    assert all(_wrapped_names()[k] is f for k, f in before.items())


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    total, own = tracer.times()
    assert tracer.counts == {"inner": 2, "outer": 1}
    assert own["outer"] == total["outer"] - total["inner"]
    assert own["inner"] == total["inner"]


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      3528 |       3528 |       maxca.gf2poly",
        "import time:       352 |        352 |       concurrent",
        "import time:      1058 |       9177 |       concurrent.futures._base",
        "import time:       335 |       9864 |     concurrent.futures",
        "import time:      1004 |      25556 |     concurrent.futures.process",
        "import time:      5349 |      45317 |   maxca.enumerator",
        "import time:       962 |      77579 | maxca",
    ])
    assert layertrace.parse_importtime(stderr) == {
        "import_ms": 77.579,
        "import_concurrent_futures_ms": 35.42,
    }


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert res.returncode != 0
    assert res.stdout == ""
