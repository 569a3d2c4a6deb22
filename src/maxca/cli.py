"""Command line front end.

One executable, seven subcommands:

    enum           exhaustive table of maximum-length rule vectors
    charpoly       characteristic polynomial of one rule vector
    primitive      primitivity verdict with order diagnostics
    cycle          measured cycle length from a seed
    stream         pseudorandom bitstream from a running automaton
    verify-tables  re-verify the bundled reference table
    primpoly-list  all primitive polynomials of one degree

Results go to stdout, diagnostics to stderr. Exit codes: 0 success
(-h/--help too), 1 verification failure (verify-tables --strict), 2
usage error, 141 output pipe closed by the reader (128 + SIGPIPE, as a
shell reports).

A process enters through run(), which freezes the collector after
main() returns, so the interpreter's exit-time collections skip every
object still alive, and which ends an interrupted process by SIGINT
with no traceback. main() itself does neither: a caller that runs it
in-process keeps a normal collector and gets the KeyboardInterrupt.
"""

import gc
import os
import sys
from itertools import islice, starmap
from types import SimpleNamespace

from .gf2poly import X, _format_lsb, _pack_blocks, format_poly, parse_poly

__all__ = ["main"]

# The module that owns each name a handler calls, plus the five names
# (enumerate_maxlen, enumerate_primitive, order_of_x, stream_bits,
# pack_bits) that only the benchmark's traced run
# (perfbench/layertrace.py) reads and wraps here.
# A handler imports only the owners of its own names, so each command
# compiles only the modules it runs.
_OWNERS = {
    name: module
    for module, names in (
        ("charpoly", "RuleVector characteristic_polynomial"),
        ("primitivity", "_listing _order_of_x enumerate_primitive factorize_mersenne is_irreducible is_primitive order_of_x"),
        ("automaton", "CaState _cycle_length_jump _stream_chunks cycle_length_from pack_bits stream_bits unit_seed"),
        ("enumerator", "_maxlen_hits enumerate_maxlen"),
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


def _write_lines(lines) -> None:
    # About 1,024 lines per write: neither a write per line nor the
    # whole table held as one string.
    lines = iter(lines)
    while chunk := list(islice(lines, 1024)):
        sys.stdout.write("\n".join(chunk) + "\n")


def _cmd_enum(args) -> int:
    [maxlen_hits] = _bound("_maxlen_hits")
    n = args.n
    hits = maxlen_hits(n, args.jobs, args.force)
    # Each sorted (polynomial bits, mask) hit is one line: a vector and
    # its mirror share their polynomial, so the mask as n binary digits
    # is the text of a vector of that polynomial, cell 0 leftmost.
    if args.format == "tsv":
        print("n\tpolynomial\trule_vector")
        line = f"{n}\t{{:b}}\t{{:0{n}b}}".format
    else:
        line = f"{{:b}} {{:0{n}b}}".format
    _write_lines(starmap(line, hits))
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


# Up to this n `cycle` steps the automaton (at most 2^n states), and
# above it jumps ahead. The jump alone would serve every n, as it does
# for the table audit, but stepping spares a small `cycle` from
# compiling `primitivity` (1–2 ms of a ≈60 ms child), and
# perfbench/test_perfbench.py counts cycle steps through this module's
# `cycle_length_from`.
_STEP_MAX_N = 8


def _cmd_cycle(args) -> int:
    RuleVector, CaState, unit_seed = _bound("RuleVector", "CaState", "unit_seed")
    rv = RuleVector(args.rules)
    seed = CaState.from_string(args.seed) if args.seed is not None else unit_seed(rv.n)
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
    seed = CaState.from_string(args.seed) if args.seed is not None else unit_seed(rv.n)
    # Validates before any output file is opened.
    chunks = _stream_chunks(rv, seed, args.bits, tap=args.tap)
    if args.out is not None:
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
    if args.errata is not None:
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
    [listing] = _bound("_listing")
    # The sorted bits as binary digits are format_poly's lines, with no
    # Gf2Poly built; sorted in place, as at n = 24 a copy holds 276,480 more.
    polys = listing(args.n)
    polys.sort()
    _write_lines(map("{:b}".format, polys))
    return 0


_REQUIRED = object()

# Each command: its handler, its help line and its options. An option
# maps to (kind, default or _REQUIRED, help); a kind is int, str, the
# tuple of allowed words, or bool for a flag (default False).
_COMMANDS = {
    "enum": (_cmd_enum, "list all n-cell maximum-length rule vectors", {
        "--n": (int, _REQUIRED, "cell count"),
        "--format": (("paper", "tsv"), "paper", "two-column table or TSV with header"),
        "--jobs": (int, 1, "accepted for compatibility (>= 1, default 1); the scan runs in one process"),
        "--force": (bool, False, "allow n beyond the exhaustive-mode cap"),
    }),
    "charpoly": (_cmd_charpoly, "characteristic polynomial of a rule vector", {
        "--rules": (str, _REQUIRED, "rule vector, e.g. 00000110"),
    }),
    "primitive": (_cmd_primitive, "test a polynomial for primitivity", {
        "--poly": (str, _REQUIRED, "MSB-first binary polynomial"),
    }),
    "cycle": (_cmd_cycle, "cycle length from a seed state", {
        "--rules": (str, _REQUIRED, "rule vector"),
        "--seed": (str, None, "seed state (default: unit seed, cell 0 set)"),
        "--force": (bool, False, "allow n beyond the brute-force cap"),
    }),
    "stream": (_cmd_stream, "emit a pseudorandom bitstream", {
        "--rules": (str, _REQUIRED, "rule vector"),
        "--bits": (int, _REQUIRED, "number of bits"),
        "--tap": (int, 0, "cell to read (default 0)"),
        "--seed": (str, None, "seed state (default: unit seed)"),
        "--ascii": (bool, False, "one '0'/'1' line per bit instead of packed bytes"),
        "--out": (str, None, "output file (default: stdout)"),
    }),
    "verify-tables": (_cmd_verify_tables, "re-verify the bundled reference table", {
        "--n": (int, None, "restrict to one cell count"),
        "--strict": (bool, False, "exit 1 if any row fails"),
        "--errata": (str, None, "write failing rows to this file"),
    }),
    "primpoly-list": (_cmd_primpoly_list, "all primitive polynomials of degree n", {
        "--n": (int, _REQUIRED, "polynomial degree"),
    }),
}

_HELP = ("-h", "--help")


class _Exit(Exception):
    """Ends the parse with (exit code, text): help on stdout with 0, or a
    usage error on stderr with 2."""


def _error(prog: str, message: str) -> _Exit:
    return _Exit(2, f"{prog}: error: {message}\n")


def _option(prog: str, token: str, names) -> tuple | None:
    # How argparse reads one token against a parser's option names: None
    # for a value, else (the option or None if unknown, the text after
    # '=' or glued to -h, or None). A prefix of two names is an error.
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        matches = [(n, value if eq else None) for n in names if n.startswith(name)]
    else:
        matches = [("-h", token[2:])] if token[:2] == "-h" else []
    if len(matches) > 1:
        raise _error(prog, f"ambiguous option: {token} could match {', '.join(n for n, _ in matches)}")
    if matches:
        return matches[0]
    # A negative number (argparse's -\d+$ or -\d*\.\d+$) or a token with
    # a space is a value.
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    if ((frac if dot else whole).isdecimal() and (not whole or whole.isdecimal())) or " " in token:
        return None
    return None, None


def _help(prog: str, name: str, value: str | None, command: str | None = None):
    if name == "-h" and value:
        # -hh reads as -h -h.
        value = value.lstrip("h") or None
    if value is not None:
        raise _error(prog, f"argument -h/--help: ignored explicit argument {value!r}")
    from .helptext import help_text  # compiled only where help is shown

    raise _Exit(0, help_text(_COMMANDS, _REQUIRED, command))


def _parse(argv) -> SimpleNamespace:
    """The handlers' arguments from argv, read as argparse read them:
    options before the command, then the command's options as --opt
    value, --opt=value or a unique prefix, the last one given winning.
    Raises _Exit for help or a usage error, with argparse's wording."""
    extras, command = [], None
    for i, token in enumerate(argv):
        option = None if token == "--" else _option("maxca", token, _HELP)
        if option is None:
            command, argv = token, argv[i + 1:]
            break
        if option[0]:
            _help("maxca", *option)
        extras.append(token)
    # A '--' is the command only if some token follows it.
    if command is None or (command == "--" and not argv):
        raise _error("maxca", "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _error("maxca", f"argument command: invalid choice: {command!r} (choose from {choices})")
    prog = f"maxca {command}"
    options = _COMMANDS[command][2]
    # Every token up to a '--' is read before any is taken, so an
    # ambiguous prefix is the first error wherever it stands.
    head = argv[:argv.index("--")] if "--" in argv else argv
    read = [_option(prog, token, (*_HELP, *options)) for token in head]
    values = {name: default for name, (_, default, _) in options.items()}
    j = 0
    while j < len(argv):
        name, value = read[j] if j < len(read) and read[j] else (None, None)
        j += 1
        if name is None:
            extras.append(argv[j - 1])
            continue
        if name in _HELP:
            _help(prog, name, value, command)
        kind = options[name][0]
        if kind is bool:
            if value is not None:
                raise _error(prog, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if j == len(read) or read[j]:
                raise _error(prog, f"argument {name}: expected one argument")
            value = argv[j]
            j += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _error(prog, f"argument {name}: invalid int value: {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _error(prog, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        values[name] = value
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise _error(prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _error("maxca", f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{name[2:]: value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:
        code, text = exc.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    try:
        return _COMMANDS[args.command][0](args)
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


def run() -> None:
    """The process entry of the `maxca` script and `python -m maxca.cli`."""
    try:
        code = main()
    except KeyboardInterrupt:
        # End as CPython ends on an uncaught interrupt, killed by
        # SIGINT, so a shell sees the same status, but print no
        # traceback.
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    # The interpreter's exit-time collections would walk every object
    # still alive, the site start-up's included; frozen objects are out
    # of their reach. Finalization still flushes the streams and runs
    # atexit handlers.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
