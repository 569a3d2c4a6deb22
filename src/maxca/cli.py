"""Command line front end.

One executable, seven subcommands:

    enum           exhaustive table of maximum-length rule vectors
    charpoly       characteristic polynomial of one rule vector
    primitive      primitivity verdict with order diagnostics
    cycle          measured cycle length from a seed
    stream         pseudorandom bitstream from a running automaton
    verify-tables  re-verify the bundled reference table
    primpoly-list  all primitive polynomials of one degree

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure (verify-tables --strict), 2 usage error, 141
output pipe closed by the reader (128 + SIGPIPE, as a shell reports).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .gf2poly import X, _format_lsb, _pack_blocks, format_poly, parse_poly

__all__ = ["main"]

# The module that owns each name a handler calls, plus the three names
# (order_of_x, stream_bits, pack_bits) that only the benchmark's traced
# run (perfbench/layertrace.py) reads and wraps here. A handler imports
# only the owners of its own names, so each command compiles only the
# modules it runs.
_OWNERS = {
    name: module
    for module, names in (
        ("charpoly", "RuleVector characteristic_polynomial"),
        ("primitivity", "_order_of_x enumerate_primitive factorize_mersenne is_irreducible is_primitive order_of_x"),
        ("automaton", "_STEP_MAX_N CaState _cycle_length_jump _stream_chunks cycle_length_from pack_bits stream_bits unit_seed"),
        ("enumerator", "enumerate_maxlen"),
        ("tables", "verify_all"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    # Read through to the owner on every lookup, never cached here: a
    # patch on the owner must not stay pinned in this module once undone.
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__package__}.{_OWNERS[name]}"), name)


def _bound(*names: str) -> list:
    # A binding in this module (a traced-run wrapper, a test's patch)
    # wins over the owner's. globals(), not sys.modules[__name__], which
    # is another module when runpy runs this file as __main__.
    bound = globals()
    return [bound[name] if name in bound else __getattr__(name) for name in names]


class _Parser(argparse.ArgumentParser):
    # One-line diagnostics on stderr, exit 2, no usage dump.
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list all n-cell maximum-length rule vectors")
    p.add_argument("--n", type=int, required=True, help="cell count")
    p.add_argument("--format", choices=["paper", "tsv"], default="paper",
                   help="two-column table or TSV with header")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (>= 1, default 1); "
                        "the scan runs in one process")
    p.add_argument("--force", action="store_true",
                   help="allow n beyond the exhaustive-mode cap")

    p = sub.add_parser("charpoly", help="characteristic polynomial of a rule vector")
    p.add_argument("--rules", required=True, help="rule vector, e.g. 00000110")

    p = sub.add_parser("primitive", help="test a polynomial for primitivity")
    p.add_argument("--poly", required=True, help="MSB-first binary polynomial")

    p = sub.add_parser("cycle", help="cycle length from a seed state")
    p.add_argument("--rules", required=True)
    p.add_argument("--seed", help="seed state (default: unit seed, cell 0 set)")
    p.add_argument("--force", action="store_true",
                   help="allow n beyond the brute-force cap")

    p = sub.add_parser("stream", help="emit a pseudorandom bitstream")
    p.add_argument("--rules", required=True)
    p.add_argument("--bits", type=int, required=True, help="number of bits")
    p.add_argument("--tap", type=int, default=0, help="cell to read (default 0)")
    p.add_argument("--seed", help="seed state (default: unit seed)")
    p.add_argument("--ascii", action="store_true",
                   help="one '0'/'1' line per bit instead of packed bytes")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("verify-tables", help="re-verify the bundled reference table")
    p.add_argument("--n", type=int, help="restrict to one cell count")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any row fails")
    p.add_argument("--errata", help="write failing rows to this file")

    p = sub.add_parser("primpoly-list", help="all primitive polynomials of degree n")
    p.add_argument("--n", type=int, required=True)

    return parser


def _write_lines(lines) -> None:
    # About 1,024 lines per write: neither a write per line nor the
    # whole table held as one string.
    lines = iter(lines)
    while chunk := list(islice(lines, 1024)):
        sys.stdout.write("\n".join(chunk) + "\n")


def _cmd_enum(args) -> int:
    [enumerate_maxlen] = _bound("enumerate_maxlen")
    entries = enumerate_maxlen(args.n, jobs=args.jobs, force=args.force)
    if args.format == "tsv":
        print("n\tpolynomial\trule_vector")
        _write_lines(f"{e.n}\t{format_poly(e.polynomial)}\t{e.rule_vector}" for e in entries)
    else:
        _write_lines(f"{format_poly(e.polynomial)} {e.rule_vector}" for e in entries)
    return 0


def _cmd_charpoly(args) -> int:
    RuleVector, characteristic_polynomial = _bound("RuleVector", "characteristic_polynomial")
    print(format_poly(characteristic_polynomial(RuleVector(args.rules))))
    return 0


def _cmd_primitive(args) -> int:
    is_primitive, factorize_mersenne, is_irreducible, _order_of_x = _bound(
        "is_primitive", "factorize_mersenne", "is_irreducible", "_order_of_x")
    p = parse_poly(args.poly)
    # Checks the degree (>= 1) before factorize_mersenne reads it.
    primitive = is_primitive(p)
    f = factorize_mersenne(p.degree)
    # Order 2^n - 1 implies irreducible, so a primitive p needs no test
    # and its order is 2^n - 1; otherwise one test serves both lines.
    irreducible = primitive or is_irreducible(p)
    print(f"polynomial: {format_poly(p)}")
    print(f"degree: {p.degree}")
    print(f"irreducible: {'yes' if irreducible else 'no'}")
    if not irreducible:
        print(f"order of x: undefined (reducible), full order would be {f.value}")
    elif p == X:
        print(f"order of x: undefined (x = 0 mod x), full order would be {f.value}")
    else:
        print(f"order of x: {f.value if primitive else _order_of_x(p, f)} of {f.value}")
    print(f"primitive: {'yes' if primitive else 'no'}")
    return 0


def _cmd_cycle(args) -> int:
    RuleVector, CaState, unit_seed, _STEP_MAX_N = _bound("RuleVector", "CaState", "unit_seed", "_STEP_MAX_N")
    rv = RuleVector(args.rules)
    seed = CaState.from_string(args.seed) if args.seed else unit_seed(rv.n)
    [measure] = _bound("cycle_length_from" if rv.n <= _STEP_MAX_N else "_cycle_length_jump")
    t = measure(rv, seed, force=args.force)
    print("none" if t is None else t)
    return 0


def _write_stream(f, chunks, ascii_out: bool) -> None:
    if ascii_out:
        for value, k in chunks:
            line = bytearray(2 * k)
            line[::2] = _format_lsb(value, k).encode()
            line[1::2] = b"\n" * k
            f.write(line)
        return
    f.writelines(_pack_blocks(chunks))


def _cmd_stream(args) -> int:
    RuleVector, CaState, unit_seed, _stream_chunks = _bound("RuleVector", "CaState", "unit_seed", "_stream_chunks")
    rv = RuleVector(args.rules)
    seed = CaState.from_string(args.seed) if args.seed else unit_seed(rv.n)
    # Validates before any output file is opened.
    chunks = _stream_chunks(rv, seed, args.bits, tap=args.tap)
    if args.out:
        with open(args.out, "wb") as f:
            _write_stream(f, chunks, args.ascii)
    else:
        sys.stdout.flush()
        _write_stream(sys.stdout.buffer, chunks, args.ascii)
        sys.stdout.buffer.flush()
    return 0


def _cmd_verify_tables(args) -> int:
    [verify_all] = _bound("verify_all")
    report = verify_all(args.n)
    # Written before any output, so a path that cannot be opened exits 2
    # with stdout empty.
    if args.errata:
        report.write_errata(args.errata)
    for line in report.errata_lines():
        print(f"FAIL {line}")
    print(f"rows: {report.total}")
    print(f"passed: {report.passed}")
    print(f"failed: {len(report.failures)}")
    if report.failures and args.strict:
        return 1
    return 0


def _cmd_primpoly_list(args) -> int:
    [enumerate_primitive] = _bound("enumerate_primitive")
    _write_lines(map(format_poly, enumerate_primitive(args.n)))
    return 0


_DISPATCH = {
    "enum": _cmd_enum,
    "charpoly": _cmd_charpoly,
    "primitive": _cmd_primitive,
    "cycle": _cmd_cycle,
    "stream": _cmd_stream,
    "verify-tables": _cmd_verify_tables,
    "primpoly-list": _cmd_primpoly_list,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `| head`); suppress the noise
        # and exit as a shell reports a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        # After BrokenPipeError, an OSError too. Any other OSError is
        # e.g. an --out or --errata path that cannot be opened.
        print(f"maxca {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
