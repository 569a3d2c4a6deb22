"""Fast paths against their slow oracles, over the whole range where the
oracle is affordable.

    python3 tools/oracles.py [--max-n N]

Runs each pair for n = 2..20, or 2..N, the listing pair to n = 18 and
the stream pair, whatever N, to n = 64, and prints one line per
(pair, n): the pair, n, `ok` or `MISMATCH`, and the sha256 of the
oracle's side of what was compared, tab-separated. The pairs:

    scan  enumerator._scan against one charpoly per diagonal, as sorted
          (mask, polynomial bits) hits, with the primitive polynomials
          of degree n as targets and, to n = 16, with every polynomial
          of degree n, which every diagonal hits.
    enum  what `maxca enum --n n` prints, in the paper and the TSV
          format, against the primitive hits of the per-diagonal scan,
          each written as its own vector's text beside its polynomial,
          sorted: no text comes from another vector's mask.
    jump  automaton._cycle_length_jump against raw simulation
          (cycle_length_from), as the simulated lengths: every rule
          vector with every nonzero seed to n = 7, every rule vector
          with the unit seed and three seeded random seeds at n = 8,
          and 100 seeded random (rule vector, seed) pairs at each n
          from 9, so singular T and reducible charpolys occur.
    listing  primitivity.enumerate_primitive against the order test
             (is_primitive) on every odd-weight polynomial of degree n
             with constant term 1, as the ascending polynomial bits that pass it, to n = 18.
    filter  enumerator.filter_stats's closed forms against the counts
            of the rejection cascade (even weight, zero constant, not
            primitive, survivors) that the scan pair's per-diagonal
            pass takes as it goes, as a FilterStats.
    stream  automaton._stream_chunks against the per-step stream_bits,
            as the first 4,096 bits, for one rule vector, seed and tap
            seeded with n, to n = 64 (gf2poly.MAX_DEGREE). At n = 3 the
            case runs to 786,432 bits, four times the n * 65,536 after
            which the block kernel's window of 2n blocks slides.

It runs the maxca in the src/ next to it, `enum` as a child process,
against the slow references of tests/references.py, which the tests
use too. It exits 1 after the last line if any pair mismatched, 2 on a
usage error. The full run takes about 40 s on one CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path[:0] = [SRC, os.path.join(REPO, "tests")]

from maxca.automaton import CaState, _cycle_length_jump, _stream_chunks, cycle_length_from, stream_bits  # noqa: E402
from maxca.charpoly import RuleVector  # noqa: E402
from maxca.enumerator import FilterStats, _primitive_set, _scan, filter_stats  # noqa: E402
from maxca.gf2poly import _BLOCK_BITS, MAX_DEGREE, Gf2Poly, format_poly  # noqa: E402
from maxca.primitivity import enumerate_primitive  # noqa: E402
from references import filter_primitive, jump_cases, per_diagonal  # noqa: E402

MAX_N = 20
# Every polynomial of degree n is a target set up to this n.
_EVERY_MAX_N = 16
# The listing is checked against the order-test filter up to this n.
_LISTING_MAX_N = 18
# The stream pair's case at this n runs through the block kernel's
# sliding window; the others stop at 4,096 bits, inside its doubling.
_STREAM_SLIDE_N = 3


def check_scan(n: int, primitive: frozenset[int]) -> tuple[bool, list, list[int]]:
    """Whether _scan matches the per-diagonal scan, the latter's hits,
    and its cascade counts."""
    target_sets = [primitive]
    if n <= _EVERY_MAX_N:
        target_sets.append(frozenset(range(1 << n, 1 << (n + 1))))
    want, cascade = per_diagonal(n, target_sets)
    got = [sorted((mask, bits) for bits, mask in _scan(n, targets)) for targets in target_sets]
    return got == want, want, cascade


def check_enum(n: int, hits: list[tuple[int, int]]) -> tuple[bool, str]:
    """Whether `enum` prints, in both formats, the text built from each
    of the hits' own vectors, and that text."""
    paper = sorted(f"{format_poly(Gf2Poly(bits))} {RuleVector.from_mask(mask, n)}" for mask, bits in hits)
    tsv = ["n\tpolynomial\trule_vector"] + [f"{n}\t" + line.replace(" ", "\t") for line in paper]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    same = True
    want = ""
    for fmt, lines in (("paper", paper), ("tsv", tsv)):
        text = "".join(line + "\n" for line in lines)
        proc = subprocess.run(
            [sys.executable, "-m", "maxca.cli", "enum", "--n", str(n), "--format", fmt],
            capture_output=True, text=True, env=env,
        )
        same &= proc.returncode == 0 and proc.stdout == text
        want += text
    return same, want


def check_jump(n: int) -> tuple[bool, list]:
    """Whether the jump measures what raw simulation does on every case,
    and the simulated lengths (None where the seed never recurs)."""
    same = True
    lengths = []
    for mask, bits in jump_cases(n):
        rv, seed = RuleVector.from_mask(mask, n), CaState(bits, n)
        t = cycle_length_from(rv, seed)
        same &= _cycle_length_jump(rv, seed) == t
        lengths.append(t)
    return same, lengths


def check_listing(n: int) -> tuple[bool, list[int]]:
    """Whether enumerate_primitive lists exactly the polynomials that
    pass the order test, and their bits."""
    want = filter_primitive(n)
    return [p.bits for p in enumerate_primitive(n)] == want, want


def check_filter(n: int, cascade: list[int]) -> tuple[bool, FilterStats]:
    """Whether filter_stats gives the per-diagonal scan's cascade counts,
    and those counts."""
    want = FilterStats(n, 1 << n, *cascade)
    return filter_stats(n) == want, want


def check_stream(n: int) -> tuple[bool, list[int]]:
    """Whether _stream_chunks yields the first 4,096 bits of stream_bits
    (at _STREAM_SLIDE_N, 4 * n * 2 * _BLOCK_BITS) for a rule vector, seed
    and tap seeded with n, and those bits."""
    rng = random.Random(n)
    rv, seed = RuleVector.from_mask(rng.randrange(1 << n), n), CaState(rng.randrange(1, 1 << n), n)
    tap = rng.randrange(n)
    count = 4 * n * 2 * _BLOCK_BITS if n == _STREAM_SLIDE_N else 4096
    want = list(stream_bits(rv, seed, count, tap))
    got = [value >> i & 1 for value, nbits in _stream_chunks(rv, seed, count, tap) for i in range(nbits)]
    return got == want, want


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="oracles.py", description="Check fast paths against their oracles.")
    parser.add_argument(
        "--max-n", type=int, default=MAX_N, help=f"largest n but the stream pair's, 2..{MAX_N} (default {MAX_N})"
    )
    max_n = parser.parse_args(argv).max_n
    if not 2 <= max_n <= MAX_N:
        parser.error(f"--max-n must be in 2..{MAX_N}, got {max_n}")
    failed = 0
    for n in range(2, MAX_DEGREE + 1):
        results = []
        if n <= max_n:
            scan_ok, hits, cascade = check_scan(n, _primitive_set(n))
            enum_ok, text = check_enum(n, hits[0])
            jump_ok, lengths = check_jump(n)
            results += [("scan", scan_ok, repr(hits)), ("enum", enum_ok, text), ("jump", jump_ok, repr(lengths))]
            if n <= _LISTING_MAX_N:
                listing_ok, listed = check_listing(n)
                results.append(("listing", listing_ok, repr(listed)))
            filter_ok, stats = check_filter(n, cascade)
            results.append(("filter", filter_ok, repr(stats)))
        stream_ok, streamed = check_stream(n)
        results.append(("stream", stream_ok, repr(streamed)))
        for pair, same, compared in results:
            digest = hashlib.sha256(compared.encode()).hexdigest()
            print(f"{pair}\t{n}\t{'ok' if same else 'MISMATCH'}\t{digest}", flush=True)
            failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
