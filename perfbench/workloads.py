"""Workloads of the maxca benchmark: seeded inputs, commands and oracles.

A workload is a fixed list of `maxca` commands (one "pass"). Its inputs
are drawn from the benchmark's seed; the program only sees the
generated command lines. Every command carries an oracle that checks
its exit code and output against values computed in-process by the
library or recorded at the commit that defined the benchmark. Oracles
run outside the timed region.

Why these three workloads:

search  `enum --n 16` and `primpoly-list --n 16`. Nearly all time is
        the order test (`pow_x_mod` under `is_primitive`); `enum`
        repeats polynomials (29,156 order tests, 8,475 distinct) while
        `primpoly-list` repeats none, so a memo shows on one command
        and not the other. Covers the whole input space, so the seed
        does not change it.
stream  an n = 32 generator drawn from the seed, written packed
        (8 Mbit, streamed through a generator) and as ASCII (1 Mbit,
        built whole in memory). All time is the step kernel,
        `pack_bits` and the cli output path; primitivity is idle.
audit   `verify-tables --strict`, 40 short queries and three n = 20
        `cycle` runs. Process start plus `import maxca` dominates each
        query, so set-up and import changes show here; `cycle` runs the
        step kernel as a state-compare loop rather than as an emitter.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from maxca import (
    CaState,
    Gf2Poly,
    RuleVector,
    characteristic_polynomial,
    cycle_length_from,
    factorize_mersenne,
    format_poly,
    is_irreducible,
    is_primitive,
    order_of_x,
    parse_poly,
    primitive_count,
    stream_bits,
)

WORKLOADS = ("search", "stream", "audit")

SEARCH_N = 16
# stdout digests of `enum --n 16 --format tsv` and `primpoly-list --n 16`
# recorded at the commit that defined this benchmark; output must stay
# byte-identical.
ENUM_TSV_SHA256 = "ed4d1e1fc52700c03e123546c8c986cee444349a3a2165888ee3c5e661883882"
PRIMPOLY_SHA256 = "1ab3cd7f0ebc8532c3c8b524e14c3008ae972d0230915092ce207daef42df5dc"

STREAM_N = 32
STREAM_PACKED_BITS = 1 << 23
STREAM_ASCII_BITS = 1 << 20
STREAM_PREFIX_BITS = 64

QUERY_KINDS = ("charpoly", "primitive", "cycle")
QUERIES = 40  # round-robin over QUERY_KINDS, so every seed has the same mix
QUERY_MAX_N = 32
QUERY_CYCLE_MAX_N = 12
CYCLE_N = 20
CYCLE_RUNS = 3

TABLE_ROWS = 479
TABLE_PASSED = 473

# Oracle: (exit code, stdout bytes, bytes of the --out file or None)
# -> None when correct, else a one-line reason.
Check = Callable[[int, bytes, "bytes | None"], "str | None"]


@dataclass(frozen=True)
class Command:
    """One `maxca` invocation of a workload pass."""

    kind: str
    args: tuple[str, ...]
    check: Check
    out: str | None = None  # file name given to --out, if any


# -- seeded inputs ---------------------------------------------------------


def _maxlen_mask(rng: random.Random, n: int) -> int:
    # Rejection sampling: draw diagonals until the charpoly is primitive.
    while True:
        mask = rng.getrandbits(n)
        if is_primitive(characteristic_polynomial(RuleVector.from_mask(mask, n))):
            return mask


def _bits_str(bits: int, n: int) -> str:
    # Text form of rule vectors and states: leftmost character = cell 0.
    return "".join(str((bits >> i) & 1) for i in range(n))


def _nonzero_state(rng: random.Random, n: int) -> str:
    return _bits_str(rng.randrange(1, 1 << n), n)


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's generated inputs; the same seed gives the same
    inputs. JSON-serialisable, so a run record reproduces them."""
    rng = random.Random(f"maxca-perfbench/{workload}/{seed}")
    if workload == "search":
        return {"n": SEARCH_N}
    if workload == "stream":
        return {
            "rules": _bits_str(_maxlen_mask(rng, STREAM_N), STREAM_N),
            "seed_state": _nonzero_state(rng, STREAM_N),
            "tap": rng.randrange(STREAM_N),
        }
    if workload == "audit":
        queries = []
        for i in range(QUERIES):
            kind = QUERY_KINDS[i % len(QUERY_KINDS)]
            if kind == "charpoly":
                n = rng.randint(2, QUERY_MAX_N)
                queries.append(["charpoly", _bits_str(rng.getrandbits(n), n)])
            elif kind == "primitive":
                d = rng.randint(2, QUERY_MAX_N)
                if i % 2:  # alternate a known-primitive and a random odd polynomial
                    p = characteristic_polynomial(RuleVector.from_mask(_maxlen_mask(rng, d), d))
                    bits = p.bits
                else:
                    bits = (1 << d) | (rng.getrandbits(d - 1) << 1) | 1
                queries.append(["primitive", format_poly(Gf2Poly(bits))])
            else:
                n = rng.randint(2, QUERY_CYCLE_MAX_N)
                queries.append(["cycle", _bits_str(rng.getrandbits(n), n), _nonzero_state(rng, n)])
        cycles = [
            [_bits_str(_maxlen_mask(rng, CYCLE_N), CYCLE_N), _nonzero_state(rng, CYCLE_N)]
            for _ in range(CYCLE_RUNS)
        ]
        return {"queries": queries, "cycles": cycles}
    raise ValueError(f"unknown workload {workload!r}")


# -- oracles ---------------------------------------------------------------


def _expect_exit(want: int, code: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def check_digest(digest: str, rows: int, header: bool, code: int, stdout: bytes, out) -> str | None:
    """Output is byte-identical to the recorded digest and has `rows` rows."""
    if err := _expect_exit(0, code):
        return err
    got_rows = stdout.count(b"\n") - (1 if header else 0)
    if got_rows != rows:
        return f"{got_rows} rows, expected {rows}"
    if hashlib.sha256(stdout).hexdigest() != digest:
        return "output differs from the recorded digest"
    return None


def stream_value(data: bytes, bits: int, ascii_out: bool) -> int | str:
    """The stream as an int (bit i = i-th output bit), or a reason why
    the output is malformed."""
    if ascii_out:
        if len(data) != 2 * bits:
            return f"{len(data)} bytes, expected {2 * bits}"
        if data[1::2] != b"\n" * bits or data[::2].translate(None, b"01"):
            return "ASCII output is not one 0/1 digit per line"
        return int(data[::2][::-1], 2) if bits else 0
    if len(data) != (bits + 7) // 8:
        return f"{len(data)} bytes, expected {(bits + 7) // 8}"
    value = int.from_bytes(data, "little")
    if value >> bits:
        return "padding bits of the last byte are set"
    return value


def check_stream(rules: str, seed_state: str, tap: int, bits: int, ascii_out: bool,
                 code: int, stdout: bytes, out: bytes | None) -> str | None:
    """The first bits equal the in-process `stream_bits`, and the whole
    output obeys the charpoly recurrence; a prefix of at least n bits
    plus the recurrence pins the sequence uniquely."""
    if err := _expect_exit(0, code):
        return err
    if out is None:
        return "no output file"
    value = stream_value(out, bits, ascii_out)
    if isinstance(value, str):
        return value
    rv = RuleVector(rules)
    k = min(STREAM_PREFIX_BITS, bits)
    prefix = sum(b << i for i, b in enumerate(stream_bits(rv, CaState.from_string(seed_state), k, tap)))
    if value & ((1 << k) - 1) != prefix:
        return f"first {k} bits differ from stream_bits"
    # sum_j c_j s_{t+j} = 0 for every window t, by Cayley-Hamilton.
    p = characteristic_polynomial(rv).bits
    acc = 0
    for j in range(rv.n + 1):
        if (p >> j) & 1:
            acc ^= value >> j
    windows = bits - rv.n
    if windows > 0 and acc & ((1 << windows) - 1):
        return "output violates the characteristic-polynomial recurrence"
    return None


def check_text(want: str, code: int, stdout: bytes, out) -> str | None:
    if err := _expect_exit(0, code):
        return err
    got = stdout.decode(errors="replace")
    return None if got == want else f"output {got.strip()!r}, expected {want.strip()!r}"


def primitive_text(poly: str) -> str:
    """What `maxca primitive --poly POLY` should print, from the library."""
    p = parse_poly(poly)
    f = factorize_mersenne(p.degree)
    irreducible = is_irreducible(p)
    order = (f"{order_of_x(p, f)} of {f.value}" if irreducible
             else f"undefined (reducible), full order would be {f.value}")
    return (f"polynomial: {format_poly(p)}\n"
            f"degree: {p.degree}\n"
            f"irreducible: {'yes' if irreducible else 'no'}\n"
            f"order of x: {order}\n"
            f"primitive: {'yes' if is_primitive(p, f) else 'no'}\n")


def check_verify_tables(code: int, stdout: bytes, out) -> str | None:
    """The bundled table audits to 473 of 479 and --strict exits 1."""
    if err := _expect_exit(1, code):
        return err
    lines = stdout.decode(errors="replace").splitlines()
    failed = TABLE_ROWS - TABLE_PASSED
    want_tail = [f"rows: {TABLE_ROWS}", f"passed: {TABLE_PASSED}", f"failed: {failed}"]
    if lines[-3:] != want_tail:
        return f"summary {lines[-3:]}, expected {want_tail}"
    if sum(line.startswith("FAIL ") for line in lines) != failed:
        return f"expected {failed} FAIL lines"
    return None


# -- command lists -----------------------------------------------------------


def commands(workload: str, inputs: dict) -> list[Command]:
    """One pass of the workload, with the oracle of every command."""
    if workload == "search":
        n = str(inputs["n"])
        count = primitive_count(inputs["n"])
        return [
            Command("enum", ("enum", "--n", n, "--jobs", "1", "--format", "tsv"),
                    partial(check_digest, ENUM_TSV_SHA256, 2 * count, True)),
            Command("primpoly", ("primpoly-list", "--n", n),
                    partial(check_digest, PRIMPOLY_SHA256, count, False)),
        ]
    if workload == "stream":
        gen = ("--rules", inputs["rules"], "--seed", inputs["seed_state"], "--tap", str(inputs["tap"]))
        cmds = []
        for kind, bits, ascii_out, out in (
            ("stream_packed", STREAM_PACKED_BITS, False, "stream.bin"),
            ("stream_ascii", STREAM_ASCII_BITS, True, "stream.txt"),
        ):
            args = ("stream", *gen, "--bits", str(bits)) + (("--ascii",) if ascii_out else ()) + ("--out", out)
            check = partial(check_stream, inputs["rules"], inputs["seed_state"], inputs["tap"], bits, ascii_out)
            cmds.append(Command(kind, args, check, out))
        return cmds
    if workload == "audit":
        cmds = [Command("verify", ("verify-tables", "--strict"), check_verify_tables)]
        for q in inputs["queries"]:
            if q[0] == "charpoly":
                want = format_poly(characteristic_polynomial(RuleVector(q[1]))) + "\n"
                cmds.append(Command("query", ("charpoly", "--rules", q[1]), partial(check_text, want)))
            elif q[0] == "primitive":
                cmds.append(Command("query", ("primitive", "--poly", q[1]), partial(check_text, primitive_text(q[1]))))
            else:
                t = cycle_length_from(RuleVector(q[1]), CaState.from_string(q[2]))
                want = f"{'none' if t is None else t}\n"
                cmds.append(Command("query", ("cycle", "--rules", q[1], "--seed", q[2]),
                                    partial(check_text, want)))
        for rules, state in inputs["cycles"]:
            # Maximum-length by construction, so every nonzero seed recurs
            # after exactly 2^n - 1 steps.
            want = f"{(1 << CYCLE_N) - 1}\n"
            cmds.append(Command("cycle", ("cycle", "--rules", rules, "--seed", state),
                                partial(check_text, want)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
