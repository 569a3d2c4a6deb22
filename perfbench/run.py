#!/usr/bin/env python3
"""End-to-end benchmark of the `maxca` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # all three, one report
    python3 perfbench/run.py --trace 1                        # per-layer trace

Timed runs (--trace 0) start real `python3 -m maxca.cli ...` commands as
child processes, one at a time, with `--jobs 1`, and repeat the
workload's pass of commands for about --seconds. Each child is timed
from spawn to reap, process start included, and its peak RSS and CPU
time come from os.wait4 (children are started through launcher.py so
that the peak RSS is the child's own). Every output is checked by the
command's oracle after the child has ended, outside the timed region;
the first failure ends the run.

A reference child of fixed pure-Python work runs between every two
measured children, and each measured wall time is scaled by the
reference times around it (see REFERENCE_PROGRAM), so that the host's
speed drifting over minutes does not read as a change of the program.
The benchmark and its children run pinned to one CPU, so that the
reference and the measured child see the same CPU's load.

End-to-end metrics, gated by BENCHMARK.json (times scaled):
    setup_s      median time of `python3 -c "import maxca"`, sampled
                 before and throughout the run
    wall_s       time of one pass: each command at its median over the
                 passes, summed in pass order
    peak_rss_mb  largest child peak RSS
The report adds `failed_frac`, the unscaled `setup_raw_s`, `wall_raw_s`
and `cpu_raw_s`, the median reference time, and a per-command breakdown
(`enum_s`, `primpoly_s`; `stream_*_mbit_s`; `verify_s`,
`query_p50_ms`, `query_p75_ms`, `cycle_msteps_s`); these are not gated
because each workload runs different commands.

Traced runs (--trace 1) run the commands of all three workloads
in-process through `maxca.cli.main`, untraced, then with the layer
wrappers of layertrace.py installed, then untraced again, and report per-layer counts
and times plus the tracing overhead. Every workload's layers are
reported whatever --workload names, so no layer reads zero merely
because the named workload leaves it idle.

The report goes to stdout; its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A run record (git sha,
Python version, CPU count, load average, the generated inputs, and the
argv, time, peak RSS and exit code of every command) is written to .perfbench_out/ in the checkout,
and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 7
IMPORTTIME_REPS = 5
CHILD_TIMEOUT_S = 60  # ten times the slowest command here

# The reference child: fixed pure-Python work (a CRC-32 shift register)
# that never imports maxca. One runs before the first measured child and
# after every measured child, and each measured time is scaled by
# REFERENCE_S over the mean of the two reference times around it. The
# host's speed drifts by up to 2x over minutes and moves the
# reference with it, so the scaled times read as seconds on a host where
# the reference takes REFERENCE_S, whenever the run happens. Swings
# within one multi-second command are not seen by the reference; the
# medians over passes absorb them.
REFERENCE_PROGRAM = """
x, seen = 0x9E3779B9, {}
for i in range(60000):
    x = ((x << 1) ^ 0x04C11DB7 if x & 0x80000000 else x << 1) & 0xFFFFFFFF
    if i % 7 == 0:
        seen[x & 0xFFFF] = i
"""
REFERENCE_S = 0.07


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    # The benchmark measures the checkout's own sources, never an
    # installed copy.
    if not os.path.isfile(os.path.join(SRC, "maxca", "__init__.py")):
        _fail(f"no maxca sources under {SRC}")
    sys.path.insert(0, SRC)
    import maxca

    if os.path.dirname(os.path.abspath(maxca.__file__)) != os.path.join(SRC, "maxca"):
        _fail(f"imported maxca from {maxca.__file__}, not from {SRC}")


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    cpu_s: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Launcher:
    """Runs children one at a time through launcher.py (see there for
    why), each timed from spawn to reap with its output in files."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.log: list[dict] = []  # every child run, for the run record
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], cwd=workdir,
            env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> Child:
        stdout_path = os.path.join(self.workdir, "stdout")
        stderr_path = os.path.join(self.workdir, "stderr")
        request = {"argv": argv, "cwd": self.workdir, "stdout": stdout_path, "stderr": stderr_path,
                   "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            _fail("the child launcher exited")
        r = json.loads(reply)
        self.log.append({"argv": argv, **r})
        return Child(argv, r["wall_s"], r["cpu_s"], r["code"], r["rss_kb"] / 1024,
                     _read(stdout_path), _read(stderr_path))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self._proc.stdin.close()
        else:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _import_child(launcher: Launcher, *flags: str) -> Child:
    child = launcher.run([sys.executable, *flags, "-c", "import maxca"])
    if child.code != 0:
        _fail(f"`import maxca` exited {child.code}: {child.stderr.decode(errors='replace').strip()}")
    return child


def _reference(launcher: Launcher) -> float:
    child = launcher.run([sys.executable, "-c", REFERENCE_PROGRAM])
    if child.code != 0:
        _fail(f"the reference child exited {child.code}")
    return child.wall_s


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


# -- timed run ----------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: int, launcher: Launcher, record: dict) -> tuple[dict, list, int, int]:
    """Returns (metrics as name -> (value, unit, samples note), report
    lines, attempted, failed). Times are scaled to the reference speed
    (see REFERENCE_PROGRAM) except those named *_raw_s."""
    from workloads import CYCLE_N, STREAM_ASCII_BITS, STREAM_PACKED_BITS, commands, make_inputs

    inputs = make_inputs(workload, seed)
    cmds = commands(workload, inputs)
    record["inputs"][workload] = inputs
    _import_child(launcher)  # warm-up: writes the bytecode cache
    refs = [_reference(launcher)]

    def scale(child: Child) -> float:
        """Runs the reference after `child`; returns the child's wall
        time scaled by the two reference times around it."""
        refs.append(_reference(launcher))
        return child.wall_s * REFERENCE_S / statistics.fmean(refs[-2:])

    def setup_sample() -> tuple[Child, float]:
        child = _import_child(launcher)
        return child, scale(child)

    setup = [setup_sample() for _ in range(SETUP_REPS)]
    # Each pass: (child, scaled wall, oracle error) per command, in order.
    passes: list[list[tuple[Child, float, str | None]]] = []
    start = time.perf_counter()
    # Stop at the pass boundary nearest to --seconds.
    failing = False
    while not failing and (not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds):
        # One more set-up sample per pass, so that the median covers the
        # same stretch of machine time as the commands.
        setup.append(setup_sample())
        results = []
        passes.append(results)
        for cmd in cmds:
            child = launcher.run([sys.executable, "-m", "maxca.cli", *cmd.args])
            scaled = scale(child)
            out = _read(os.path.join(launcher.workdir, cmd.out)) if cmd.out and child.code == 0 else None
            err = cmd.check(child.code, child.stdout, out)
            results.append((child, scaled, err))
            if err:
                failing = True  # a broken program may be slow too: the first failure ends the run
                break

    children = [c for p in passes for c, _, _ in p]
    failures = [(c.argv, err) for p in passes for c, _, err in p if err]
    record["failures"] += [{"argv": a, "error": e} for a, e in failures]

    def one_pass(value) -> float:
        # Each command at its median over the passes, summed in pass order,
        # so every command keeps its own weight.
        return sum(statistics.median(value(*p[i]) for p in passes if i < len(p))
                   for i in range(len(passes[0])))

    def scaled_of(kind: str) -> list[float]:
        return [scaled for p in passes for cmd, (_, scaled, _) in zip(cmds, p) if cmd.kind == kind]

    n = f"{len(passes)} passes, per-command medians"
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s", f"median of {len(setup)} imports"),
        "wall_s": (one_pass(lambda c, scaled, e: scaled), "s", n),
        "peak_rss_mb": (max(c.rss_mb for c in children), "MB", f"max over {len(children)} commands"),
        "failed_frac": (len(failures) / len(children), "fraction", f"{len(failures)} of {len(children)} commands"),
        "setup_raw_s": (statistics.median(c.wall_s for c, _ in setup), "s", "unscaled"),
        "wall_raw_s": (one_pass(lambda c, scaled, e: c.wall_s), "s", "unscaled"),
        "cpu_raw_s": (one_pass(lambda c, scaled, e: c.cpu_s), "s", "unscaled"),
        "reference_s": (statistics.median(refs), "s", f"median of {len(refs)} reference children"),
    }
    # Per-command breakdown; a kind the run never reached (it ended at a
    # failure first) is left out.
    if workload == "search":
        for kind in ("enum", "primpoly"):
            if walls := scaled_of(kind):
                metrics[f"{kind}_s"] = (statistics.median(walls), "s", f"median of {len(walls)}")
    elif workload == "stream":
        for kind, bits in (("stream_packed", STREAM_PACKED_BITS), ("stream_ascii", STREAM_ASCII_BITS)):
            if walls := scaled_of(kind):
                metrics[f"{kind}_mbit_s"] = (bits / 1e6 / statistics.median(walls), "Mbit/s",
                                             f"{bits} bits, median of {len(walls)}")
    else:
        if walls := scaled_of("verify"):
            metrics["verify_s"] = (statistics.median(walls), "s", f"median of {len(walls)}")
        if walls := scaled_of("query"):
            q = _quartiles(walls)
            metrics["query_p50_ms"] = (q[1] * 1000, "ms", f"over {len(walls)} queries")
            metrics["query_p75_ms"] = (q[2] * 1000, "ms", f"over {len(walls)} queries")
        if walls := scaled_of("cycle"):
            steps = ((1 << CYCLE_N) - 1) * len(walls)
            metrics["cycle_msteps_s"] = (steps / 1e6 / sum(walls), "Msteps/s", f"{len(walls)} runs")

    lines = [f"workload {workload}  seed {seed}  inputs {json.dumps(inputs)}"]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:22} {value:12.4f} {unit:9} ({note})")
    for argv, err in failures:
        lines.append(f"  FAILED {' '.join(argv[3:])}: {err}")
    return metrics, lines, len(children), len(failures)


# -- traced run -----------------------------------------------------------------


def traced_run(seed: int, launcher: Launcher, record: dict) -> tuple[dict, list, int, int]:
    """Returns (per-layer metrics as name -> (value, unit, note), report
    lines, attempted, failed)."""
    from layertrace import Tracer, layer_values, parse_importtime, patched, run_inprocess
    from workloads import STREAM_ASCII_BITS, WORKLOADS, commands, make_inputs
    from maxca import CaState, RuleVector, cli, pack_bits, stream_bits

    # Per-layer metrics are named "<workload>.<layer>.<metric>", or
    # "package.<metric>" for the import figures.
    per_layer = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    workdir = launcher.workdir
    spans_path = os.path.join(OUT_DIR, f"spans-seed{seed}.tsv")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    metrics: dict = {}
    lines = []
    attempted = failed = 0
    for workload in WORKLOADS:
        inputs = make_inputs(workload, seed)
        cmds = commands(workload, inputs)
        record["inputs"][workload] = inputs
        def untraced() -> float:
            return sum(run_inprocess(cli.main, c.args, workdir)[0] for c in cmds)

        before = untraced()
        tracer = Tracer()
        main = tracer.wrap("cli.main", cli.main)
        runs = []
        with patched(tracer):
            for c in cmds:
                runs.append(run_inprocess(main, c.args, workdir))
        # Untraced passes on both sides of the traced one, so that warm-up
        # (first allocations, caches) does not count as tracing overhead.
        untraced_s = (before + untraced()) / 2
        record["commands"] += [{"argv": ["maxca.cli.main", *c.args], "traced_wall_s": r[0], "code": r[1]}
                               for c, r in zip(cmds, runs)]
        # Oracles call the library, so they run after the wrappers are gone.
        for c, (_, code, stdout, out) in zip(cmds, runs):
            attempted += 1
            if err := c.check(code, stdout, out):
                failed += 1
                record["failures"].append({"argv": list(c.args), "error": err})
                lines.append(f"  FAILED {' '.join(c.args)}: {err}")
        traced_s = sum(r[0] for r in runs)
        values = layer_values(tracer)
        values["cli.out_bytes"] = sum(len(stdout) + len(out or b"") for _, _, stdout, out in runs)
        values["trace.overhead_frac"] = traced_s / untraced_s - 1
        if workload == "stream":
            # Computed from the code, not measured: packed output holds
            # bits/8 bytes in memory, ASCII output 2 bytes per bit.
            held = []
            for c in cmds:
                bits = int(c.args[c.args.index("--bits") + 1])
                held.append(2 * bits if "--ascii" in c.args else -(-bits // 8))
            values["cli.held_bytes_computed"] = max(held)
            rv, state = RuleVector(inputs["rules"]), CaState.from_string(inputs["seed_state"])
            start = time.perf_counter()
            bits = list(stream_bits(rv, state, STREAM_ASCII_BITS, inputs["tap"]))
            drained = time.perf_counter()
            pack_bits(bits)
            packed = time.perf_counter()
            values["automaton.stream_bits_mbit_s"] = STREAM_ASCII_BITS / 1e6 / (drained - start)
            values["automaton.pack_bits_mbit_s"] = STREAM_ASCII_BITS / 1e6 / (packed - drained)
        for name, unit in per_layer.items():
            if name.startswith(f"{workload}."):
                metrics[name] = (values[name.split(".", 1)[1]], unit, "")
        tracer.write_spans(spans_path, workload)
        lines.append(f"workload {workload}  traced {traced_s:.4f} s  untraced {untraced_s:.4f} s  "
                     f"overhead {values['trace.overhead_frac']:.1%}  spans {len(tracer.spans)}")

    _import_child(launcher)  # warm-up: writes the bytecode cache
    timings = [parse_importtime(_import_child(launcher, "-X", "importtime").stderr.decode())
               for _ in range(IMPORTTIME_REPS)]
    for name, unit in per_layer.items():
        if name.startswith("package."):
            key = name.split(".", 1)[1]
            metrics[name] = (statistics.median(t[key] for t in timings), unit, f"median of {len(timings)}")
    for name, (value, unit, _) in metrics.items():
        lines.append(f"  {name:46} {value:14.6g} {unit}")
    lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, lines, attempted, failed


# -- driver -------------------------------------------------------------------


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the maxca CLI.")
    parser.add_argument("--workload", default="all", choices=["search", "stream", "audit", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # The benchmark and every child it starts run on one CPU: the host's
    # load differs from CPU to CPU, and a reference child only stands in
    # for the speed of the CPU the measured child ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _load_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workdir = os.path.join(OUT_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    record = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "args": vars(args),
        "inputs": {},
        "commands": [],
        "failures": [],
    }
    with Launcher(workdir) as launcher:
        if args.trace:
            metrics, lines, attempted, failed = traced_run(args.seed, launcher, record)
            reported = list(metrics)
        else:
            metrics, lines, attempted, failed, reported = {}, [], 0, 0, []
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            for workload in names:
                m, ls, a, f = timed_run(workload, args.seed, args.seconds, launcher, record)
                prefix = f"{workload}." if len(names) > 1 else ""
                metrics.update({prefix + k: v for k, v in m.items()})
                reported += [prefix + m["name"] for m in _benchmark_spec()["end_to_end"]]
                lines += ls
                attempted += a
                failed += f
        record["commands"] += launcher.log
    record["loadavg_after"] = os.getloadavg()
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    for line in lines:
        print(line)
    print(f"record written to {os.path.relpath(record_path, ROOT)}; load average "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f} on {record['nproc']} CPUs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: record["metrics"][k] for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
