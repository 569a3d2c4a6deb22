"""Outside-in tracing of maxca's layers for the benchmark's traced run.

The traced run calls `maxca.cli.main(argv)` in-process with the
module-level names that each layer's callers look up replaced by
wrappers defined here, so no file of the program changes. Every wrapped
call records a span (name, start, end, parent) and a count; spans stay
in memory and are written out when the run ends. A layer's self time is
its spans' duration minus the part covered by their child spans.

`patched()` restores every wrapped name on exit, so the traced run
leaves the `maxca` modules as it found them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import Counter, defaultdict

_NS = 1e-9


class Tracer:
    """Spans and counts of one traced workload, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self.distinct_order_polys: set[int] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording one span per call; `hook(tracer, args, result)`
        runs after the call to take counts from its result."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                counts[name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Total and self nanoseconds per span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
        return total, own

    def write_spans(self, path: str, label: str) -> None:
        """Append spans as TSV: workload, index, parent, name, start_ns, end_ns."""
        with open(path, "a") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{label}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def _count_candidate(tr: Tracer, args, result) -> None:
    tr.counts["enumerator.candidates"] += 1


def _count_order_test(tr: Tracer, args, result) -> None:
    tr.counts["enumerator.order_tests"] += 1
    tr.distinct_order_polys.add(args[0].bits)
    if result:
        tr.counts["enumerator.hits"] += 1


def _count_reject(tr: Tracer, args, result) -> None:
    if not result:
        tr.counts["primitivity.irreducible_rejects"] += 1


def _count_steps(tr: Tracer, args, result) -> None:
    # A seed that never recurs costs the full 2^n steps of the search.
    tr.counts["automaton.cycle_steps"] += result if result is not None else 1 << args[0].n


def _count_passed(tr: Tracer, args, result) -> None:
    tr.counts["tables.rows_passed"] += result.passed


# (module, name its callers look up, span name, hook)
WRAPS = (
    ("maxca.cli", "enumerate_maxlen", "enumerator.enumerate_maxlen", None),
    ("maxca.cli", "enumerate_primitive", "primitivity.enumerate_primitive", None),
    ("maxca.cli", "characteristic_polynomial", "charpoly.characteristic_polynomial", None),
    ("maxca.cli", "factorize_mersenne", "primitivity.factorize_mersenne", None),
    ("maxca.cli", "is_irreducible", "primitivity.is_irreducible", None),
    ("maxca.cli", "is_primitive", "primitivity.is_primitive", None),
    ("maxca.cli", "order_of_x", "primitivity.order_of_x", None),
    ("maxca.cli", "cycle_length_from", "automaton.cycle_length_from", _count_steps),
    ("maxca.cli", "stream_bits", "automaton.stream_bits", None),
    ("maxca.cli", "pack_bits", "automaton.pack_bits", None),
    ("maxca.cli", "verify_all", "tables.verify_all", _count_passed),
    ("maxca.enumerator", "_charpoly_bits", "charpoly._charpoly_bits", _count_candidate),
    ("maxca.enumerator", "factorize_mersenne", "primitivity.factorize_mersenne", None),
    ("maxca.enumerator", "is_primitive", "primitivity.is_primitive", _count_order_test),
    ("maxca.charpoly", "_charpoly_bits", "charpoly._charpoly_bits", None),
    ("maxca.primitivity", "is_irreducible", "primitivity.is_irreducible", _count_reject),
    ("maxca.primitivity", "is_primitive", "primitivity.is_primitive", None),
    ("maxca.primitivity", "pow_x_mod", "gf2poly.pow_x_mod", None),
    ("maxca.primitivity", "gcd", "gf2poly.gcd", None),
    ("maxca.tables", "load_rows", "tables.load_rows", None),
    ("maxca.tables", "verify_row", "tables.verify_row", None),
    ("maxca.tables", "characteristic_polynomial", "charpoly.characteristic_polynomial", None),
    ("maxca.tables", "is_primitive", "primitivity.is_primitive", None),
    ("maxca.tables", "cycle_length_from", "automaton.cycle_length_from", _count_steps),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers of WRAPS; restore every original on exit."""
    saved = []
    try:
        for module, attr, span, hook in WRAPS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span, original, hook))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def run_inprocess(main, args: tuple[str, ...], workdir: str) -> tuple[float, int, bytes, bytes | None]:
    """Run one cli command in this process; returns (wall seconds, exit
    code, stdout bytes, --out file bytes or None)."""
    argv = list(args)
    out_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out_path = argv[i] = os.path.join(workdir, argv[i])
    stdout_path = os.path.join(workdir, "stdout")
    with open(stdout_path, "w") as f, contextlib.redirect_stdout(f):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    with open(stdout_path, "rb") as f:
        stdout = f.read()
    out = None
    if out_path is not None:
        with open(out_path, "rb") as f:
            out = f.read()
    return wall, code, stdout, out


def layer_values(tr: Tracer) -> dict[str, float]:
    """Every per-layer figure the spans and counts of one workload give;
    the caller keeps the ones that workload exercises."""
    total, own = tr.times()
    c = tr.counts
    candidates = c["enumerator.candidates"]
    return {
        "gf2poly.pow_x_mod_calls": c["gf2poly.pow_x_mod"],
        "gf2poly.pow_x_mod_s": total["gf2poly.pow_x_mod"] * _NS,
        "gf2poly.gcd_calls": c["gf2poly.gcd"],
        "primitivity.is_primitive_calls": c["primitivity.is_primitive"],
        "primitivity.is_primitive_s": total["primitivity.is_primitive"] * _NS,
        "primitivity.irreducible_rejects": c["primitivity.irreducible_rejects"],
        "primitivity.enumerate_primitive_s": total["primitivity.enumerate_primitive"] * _NS,
        "enumerator.enumerate_maxlen_s": total["enumerator.enumerate_maxlen"] * _NS,
        "enumerator.self_s": own["enumerator.enumerate_maxlen"] * _NS,
        "enumerator.candidates": candidates,
        "enumerator.order_tests": c["enumerator.order_tests"],
        "enumerator.distinct_order_tests": len(tr.distinct_order_polys),
        "enumerator.hits": c["enumerator.hits"],
        "enumerator.hit_ratio": c["enumerator.hits"] / candidates if candidates else 0.0,
        "charpoly.calls": c["charpoly._charpoly_bits"],
        "charpoly.self_s": (own["charpoly._charpoly_bits"] + own["charpoly.characteristic_polynomial"]) * _NS,
        "automaton.cycle_steps": c["automaton.cycle_steps"],
        "automaton.cycle_s": total["automaton.cycle_length_from"] * _NS,
        "tables.load_rows_s": total["tables.load_rows"] * _NS,
        "tables.verify_row_calls": c["tables.verify_row"],
        "tables.verify_all_s": total["tables.verify_all"] * _NS,
        "tables.rows_passed": c["tables.rows_passed"],
        "cli.self_s": own["cli.main"] * _NS,
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """`import maxca` and the `concurrent.futures` imports under it, in
    ms, from the stderr of `python -X importtime -c "import maxca"`."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    # Lines come children first; walk parents first, keeping the chain
    # of enclosing imports, and count only the outermost concurrent.*.
    maxca_us = concurrent_us = 0
    chain: list[str] = []
    for depth, name, cumulative_us in reversed(entries):
        del chain[depth:]
        if name == "maxca":
            maxca_us = cumulative_us
        if name.startswith("concurrent") and not any(a.startswith("concurrent") for a in chain):
            concurrent_us += cumulative_us
        chain.append(name)
    return {"import_ms": maxca_us / 1000, "import_concurrent_futures_ms": concurrent_us / 1000}
