"""Command line surface: outputs, exit codes, and stream formats."""

import argparse
import fcntl
import hashlib
import importlib
import os
import random
import subprocess
import sys
import textwrap
import threading

import pytest

import maxca.cli as cli
from maxca.automaton import CaState, pack_bits, stream_bits
from maxca.charpoly import RuleVector
from maxca.cli import main
from maxca.enumerator import enumerate_maxlen, rule_vectors_for
from maxca.gf2poly import format_poly
from maxca.primitivity import enumerate_primitive


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "maxca.cli", *argv],
        capture_output=True,
    )


class TestCharpoly:
    def test_worked_example(self, capsys):
        code, out, err = run_main(capsys, "charpoly", "--rules", "00000110")
        assert code == 0
        assert out == "100011101\n"
        assert err == ""

    def test_mirror_gives_same_polynomial(self, capsys):
        _, out, _ = run_main(capsys, "charpoly", "--rules", "01100000")
        assert out == "100011101\n"

    def test_bad_rules_exit_2(self, capsys):
        code, out, err = run_main(capsys, "charpoly", "--rules", "01x")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestEnum:
    def test_n2_paper_format(self, capsys):
        code, out, _ = run_main(capsys, "enum", "--n", "2", "--format", "paper")
        assert code == 0
        assert out == "111 01\n111 10\n"

    def test_n2_tsv_format(self, capsys):
        code, out, _ = run_main(capsys, "enum", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["n\tpolynomial\trule_vector", "2\t111\t01", "2\t111\t10"]

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run_main(capsys, "enum", "--n", "25")
        assert code == 2
        assert err.count("\n") == 1

    def test_n18_tsv_digest(self, capsys):
        # Recorded from the per-diagonal order-test scan, before the
        # primitive set came from decimation.
        code, out, _ = run_main(capsys, "enum", "--n", "18", "--format", "tsv", "--jobs", "1")
        assert code == 0
        assert out.count("\n") == 15553
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f3425166fadd63f63f199e71b05731a42fef63d03e06f764757b6055a738e754"
        )

    @pytest.mark.parametrize("fmt", ["paper", "tsv"])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_enumerate_maxlen_records(self, capsys, n, fmt):
        # enum prints from the scan's sorted ints; the records of
        # enumerate_maxlen are the oracle for that text.
        entries = enumerate_maxlen(n)
        if fmt == "tsv":
            want = ["n\tpolynomial\trule_vector"] + [f"{e.n}\t{format_poly(e.polynomial)}\t{e.rule_vector}" for e in entries]
        else:
            want = [f"{format_poly(e.polynomial)} {e.rule_vector}" for e in entries]
        code, out, _ = run_main(capsys, "enum", "--n", str(n), "--format", fmt)
        assert code == 0
        assert out == "".join(line + "\n" for line in want)

    def test_jobs_byte_identical(self):
        one = run_proc("enum", "--n", "10", "--jobs", "1")
        many = run_proc("enum", "--n", "10", "--jobs", "4")
        assert one.returncode == many.returncode == 0
        assert one.stdout == many.stdout


class TestPrimitive:
    def test_primitive_verdict(self, capsys):
        code, out, _ = run_main(capsys, "primitive", "--poly", "100011101")
        assert code == 0
        assert "primitive: yes" in out
        assert "order of x: 255 of 255" in out

    def test_non_primitive_verdict(self, capsys):
        code, out, _ = run_main(capsys, "primitive", "--poly", "11111")
        assert code == 0
        assert "irreducible: yes" in out
        assert "order of x: 5 of 15" in out
        assert "primitive: no" in out

    def test_x_has_undefined_order(self, capsys):
        code, out, _ = run_main(capsys, "primitive", "--poly", "10")
        assert code == 0
        assert out == (
            "polynomial: 10\n"
            "degree: 1\n"
            "irreducible: yes\n"
            "order of x: undefined (x = 0 mod x), full order would be 1\n"
            "primitive: no\n"
        )

    def test_reducible_verdict(self, capsys):
        code, out, _ = run_main(capsys, "primitive", "--poly", "101")
        assert code == 0
        assert "irreducible: no" in out
        assert "primitive: no" in out

    def test_malformed_poly_exit_2(self, capsys):
        code, _, err = run_main(capsys, "primitive", "--poly", "0101")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "poly, tests",
        [("100011101", 0), ("11111", 1), ("101", 1), ("10", 1)],
    )
    def test_at_most_one_irreducibility_test(self, capsys, monkeypatch, poly, tests):
        # Primitive: none, order 2^n - 1 implies irreducible. Otherwise
        # one, whether or not the order of x is printed.
        import maxca.cli as cli
        import maxca.primitivity as primitivity

        calls = []
        for module in (cli, primitivity):
            fn = module.is_irreducible
            monkeypatch.setattr(module, "is_irreducible", lambda p, fn=fn: calls.append(p) or fn(p))
        assert run_main(capsys, "primitive", "--poly", poly)[0] == 0
        assert len(calls) == tests


class TestCycle:
    def test_non_maxlen_short_cycle(self, capsys):
        code, out, _ = run_main(capsys, "cycle", "--rules", "00")
        assert code == 0
        assert int(out) < 3

    def test_maxlen_cycle(self, capsys):
        _, out, _ = run_main(capsys, "cycle", "--rules", "00000110")
        assert out == "255\n"

    def test_explicit_seed(self, capsys):
        _, out, _ = run_main(capsys, "cycle", "--rules", "10", "--seed", "01")
        assert out == "3\n"

    def test_transient_seed_prints_none(self, capsys):
        code, out, _ = run_main(capsys, "cycle", "--rules", "11")
        assert code == 0
        assert out == "none\n"

    def test_zero_seed_exit_2(self, capsys):
        code, _, err = run_main(capsys, "cycle", "--rules", "10", "--seed", "00")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("rules", [
        "00101111110010101001",
        "110110111000011001011000",
    ])
    def test_maxlen_at_n20_and_n24(self, capsys, rules):
        # Primitive charpolys; raw simulation gives the same (2^24 steps
        # took 3.6 s, so it is not repeated here).
        code, out, _ = run_main(capsys, "cycle", "--rules", rules)
        assert code == 0
        assert out == f"{(1 << len(rules)) - 1}\n"

    def test_beyond_cap_needs_force(self, capsys):
        code, out, err = run_main(capsys, "cycle", "--rules", "0" * 25)
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_steps_up_to_n8_and_jumps_above(self, capsys, monkeypatch):
        import maxca.cli as cli

        calls = []
        for name in ("cycle_length_from", "_cycle_length_jump"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda rv, seed, fn=fn, name=name, **kw: calls.append((rv.n, name)) or fn(rv, seed, **kw))
        for rules in ("00000110", "000001101"):
            assert run_main(capsys, "cycle", "--rules", rules)[0] == 0
        assert calls == [(8, "cycle_length_from"), (9, "_cycle_length_jump")]

    @pytest.mark.parametrize("n", [33, 64])
    def test_force_beyond_factoring_limit_exits_2_at_once(self, n):
        # Without the limit this would step the automaton 2^n times.
        proc = subprocess.run(
            [sys.executable, "-m", "maxca.cli", "cycle", "--rules", "1" * n, "--force"],
            capture_output=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1
        assert b"error" in proc.stderr


class TestStream:
    def test_ascii_lines(self, capsys):
        code, out, _ = run_main(
            capsys, "stream", "--rules", "10", "--bits", "6", "--seed", "01", "--ascii"
        )
        assert code == 0
        assert out == "1\n1\n0\n1\n1\n0\n"

    def test_packed_bytes_lsb_first(self):
        proc = run_proc("stream", "--rules", "10", "--bits", "16")
        assert proc.returncode == 0
        assert proc.stdout == b"\x6d\xdb"

    def test_packed_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "bits.bin"
        code, out, _ = run_main(
            capsys, "stream", "--rules", "10", "--bits", "16", "--out", str(out_file)
        )
        assert code == 0
        assert out == ""
        assert out_file.read_bytes() == b"\x6d\xdb"

    def test_ascii_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "bits.txt"
        run_main(capsys, "stream", "--rules", "10", "--bits", "3", "--seed", "01",
                 "--ascii", "--out", str(out_file))
        assert out_file.read_text() == "1\n1\n0\n"

    def test_bad_tap_exit_2(self, capsys):
        code, _, err = run_main(capsys, "stream", "--rules", "10", "--bits", "4", "--tap", "5")
        assert code == 2
        assert "tap" in err

    def test_bad_tap_creates_no_file(self, tmp_path, capsys):
        out_file = tmp_path / "bits.bin"
        code, _, err = run_main(capsys, "stream", "--rules", "10", "--bits", "4", "--tap", "5",
                                "--out", str(out_file))
        assert code == 2
        assert "tap" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("ascii_out", [False, True])
    def test_many_chunks_match_per_step_stream(self, tmp_path, capsys, ascii_out):
        # 100,003 bits come in many chunks and end in a partial byte.
        rules, seed, tap, bits = "1001011101", "0110001011", 7, 100_003
        out_file = tmp_path / "bits"
        code, _, _ = run_main(capsys, "stream", "--rules", rules, "--seed", seed, "--tap", str(tap),
                              "--bits", str(bits), "--out", str(out_file),
                              *(["--ascii"] if ascii_out else []))
        assert code == 0
        want = list(stream_bits(RuleVector(rules), CaState.from_string(seed), bits, tap))
        if ascii_out:
            assert out_file.read_bytes() == "".join(f"{b}\n" for b in want).encode()
        else:
            assert out_file.read_bytes() == pack_bits(want)

    def test_closed_pipe_ends_quietly(self):
        # An unbounded request stops at the first write after the reader
        # has gone. The timer kills a child that never writes or never
        # notices, which then fails the asserts instead of hanging.
        proc = subprocess.Popen(
            [sys.executable, "-m", "maxca.cli", "stream", "--rules", "00000110", "--bits", str(2**40)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        timer = threading.Timer(20, proc.kill)
        timer.start()
        try:
            head = proc.stdout.read(16)
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
        with proc.stderr:
            err = proc.stderr.read()
        assert len(head) == 16
        assert proc.returncode == 141  # 128 + SIGPIPE, not killed by the timer
        assert err == b""

    @pytest.mark.parametrize("command", ["enum", "primpoly-list"])
    def test_closed_pipe_ends_table_quietly(self, command):
        # The tables go out about 1,024 lines per write. The pipe holds one
        # page, so the child is still writing when the reader goes, even
        # for the 37 kB of the n = 16 listing.
        primitive = enumerate_primitive(16)
        if command == "enum":
            argv = ["enum", "--n", "16", "--format", "tsv"]
            want = [b"n\tpolynomial\trule_vector\n", f"16\t{format_poly(primitive[0])}\t{rule_vectors_for(primitive[0])[0]}\n".encode()]
        else:
            argv = ["primpoly-list", "--n", "16"]
            want = [f"{format_poly(p)}\n".encode() for p in primitive[:2]]
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen([sys.executable, "-m", "maxca.cli", *argv], stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        timer = threading.Timer(20, proc.kill)
        timer.start()
        try:
            with open(read_end, "rb") as out:
                head = [out.readline(), out.readline()]
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
        with proc.stderr:
            err = proc.stderr.read()
        assert head == want
        assert proc.returncode == 141
        assert err == b""

    def test_memory_does_not_grow_with_bits(self, tmp_path):
        # ru_maxrss survives exec on Linux, so a child started from this
        # (large) test process would read as large as it. A bare launcher
        # starts the stream and reports the stream's own peak from wait4.
        launcher = textwrap.dedent("""
            import os, subprocess, sys
            proc = subprocess.Popen([sys.executable, "-m", "maxca.cli", *sys.argv[1:]])
            _, status, usage = os.wait4(proc.pid, 0)
            print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
        """)
        peaks = {}
        for bits in (8, 2**24):  # 2^24 bits is 32 MiB of ASCII output
            out_file = tmp_path / f"bits{bits}.txt"
            proc = subprocess.run(
                [sys.executable, "-c", launcher, "stream", "--rules", "00000110", "--ascii",
                 "--bits", str(bits), "--out", str(out_file)],
                capture_output=True, text=True, timeout=120,
            )
            code, peaks[bits] = map(int, proc.stdout.split())
            assert code == 0
            assert out_file.stat().st_size == 2 * bits
        assert peaks[2**24] < 32 * 1024  # KiB, below the output's size
        assert peaks[2**24] - peaks[8] < 4 * 1024


class TestVerifyTables:
    def test_default_reports_and_exits_zero(self, capsys):
        code, out, _ = run_main(capsys, "verify-tables")
        assert code == 0
        assert "rows: 479" in out
        assert "passed: 473" in out
        assert "failed: 6" in out
        assert out.count("FAIL") == 6

    def test_strict_fails_on_known_bad_block(self, capsys):
        code, out, _ = run_main(capsys, "verify-tables", "--strict")
        assert code == 1
        assert out.splitlines()[-3:] == ["rows: 479", "passed: 473", "failed: 6"]

    def test_strict_passes_clean_subset(self, capsys):
        code, out, _ = run_main(capsys, "verify-tables", "--n", "4", "--strict")
        assert code == 0
        assert "failed: 0" in out

    def test_errata_file(self, tmp_path, capsys):
        path = tmp_path / "errata.txt"
        code, _, _ = run_main(capsys, "verify-tables", "--n", "5", "--errata", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 7  # header comment + six findings

    @pytest.mark.parametrize("argv", [("--n", "13"), ("--n", "0"), ("--n", "-1"), ("--n", "13", "--strict")])
    def test_n_outside_table_exits_2(self, capsys, argv):
        code, out, err = run_main(capsys, "verify-tables", *argv)
        assert code == 2
        assert out == ""
        assert err == f"maxca verify-tables: error: no table rows for n = {argv[1]}; the table covers n = 2..12\n"


class TestPrimpolyList:
    def test_n18_digest(self, capsys):
        # Recorded from the odd-weight candidate filter.
        code, out, _ = run_main(capsys, "primpoly-list", "--n", "18")
        assert code == 0
        assert out.count("\n") == 7776
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "91d19172f081e709ba581d940e61c4d2284a3e1de6ab17079a6426dbde660905"
        )

    def test_n5(self, capsys):
        code, out, _ = run_main(capsys, "primpoly-list", "--n", "5")
        assert code == 0
        assert out.splitlines() == [
            "100101", "101001", "101111", "110111", "111011", "111101",
        ]

    def test_out_of_range_exit_2(self, capsys):
        code, _, _ = run_main(capsys, "primpoly-list", "--n", "1")
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("stream", "--rules", "10", "--bits", "8", "--out"),
        ("verify-tables", "--n", "2", "--errata"),
    ])
    def test_unwritable_output_path_exits_2(self, tmp_path, argv):
        proc = run_proc(*argv, str(tmp_path / "missing" / "file"))
        assert proc.returncode == 2
        assert proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("stream", "--rules", "10", "--bits", "8", "--out"),
        ("verify-tables", "--n", "2", "--errata"),
    ])
    def test_unwritable_output_path_prints_nothing(self, tmp_path, argv):
        # The path is opened before any result reaches stdout.
        proc = run_proc(*argv, str(tmp_path / "missing" / "file"))
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_unknown_flag(self):
        proc = run_proc("enum", "--n", "2", "--bogus")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1

    def test_missing_command(self):
        proc = run_proc()
        assert proc.returncode == 2

    def test_unknown_command(self):
        proc = run_proc("frobnicate")
        assert proc.returncode == 2

    def test_missing_required_argument(self):
        proc = run_proc("charpoly")
        assert proc.returncode == 2


_COMMAND_CHOICES = "'enum', 'charpoly', 'primitive', 'cycle', 'stream', 'verify-tables', 'primpoly-list'"


class TestArgumentParsing:
    # Each usage error with the exact line that argparse printed for it.
    @pytest.mark.parametrize("argv, line", [
        ((), "maxca: error: the following arguments are required: command"),
        (("frobnicate",), f"maxca: error: argument command: invalid choice: 'frobnicate' (choose from {_COMMAND_CHOICES})"),
        (("enum",), "maxca enum: error: the following arguments are required: --n"),
        (("enum", "--n"), "maxca enum: error: argument --n: expected one argument"),
        (("cycle", "--rules", "1101", "--seed"), "maxca cycle: error: argument --seed: expected one argument"),
        (("enum", "--n", "x"), "maxca enum: error: argument --n: invalid int value: 'x'"),
        (("enum", "--n", "4", "--format", "csv"),
         "maxca enum: error: argument --format: invalid choice: 'csv' (choose from 'paper', 'tsv')"),
        (("enum", "--n", "4", "--f", "tsv"), "maxca enum: error: ambiguous option: --f could match --format, --force"),
        (("stream", "--rules", "10", "--bits", "8", "--ascii=1"),
         "maxca stream: error: argument --ascii: ignored explicit argument '1'"),
        (("enum", "--n", "4", "--bogus"), "maxca: error: unrecognized arguments: --bogus"),
        (("enum", "--n", "4", "extra"), "maxca: error: unrecognized arguments: extra"),
        (("--bogus", "enum", "--n", "4"), "maxca: error: unrecognized arguments: --bogus"),
        # A negative number is a value, not an option.
        (("enum", "--n", "-1"), "maxca enum: error: need at least 2 cells, got -1"),
        # An empty value is given, not absent: no unit seed, no stdout in
        # place of the file, no errata skipped.
        (("cycle", "--rules", "10", "--seed", ""), "maxca cycle: error: state must be a nonempty 0/1 string: ''"),
        (("stream", "--rules", "10", "--bits", "8", "--seed", ""),
         "maxca stream: error: state must be a nonempty 0/1 string: ''"),
        (("stream", "--rules", "10", "--bits", "8", "--out", ""),
         "maxca stream: error: [Errno 2] No such file or directory: ''"),
        (("verify-tables", "--n", "2", "--errata", ""),
         "maxca verify-tables: error: [Errno 2] No such file or directory: ''"),
        # `--opt=--` gives the value "--", which each option then reads.
        (("charpoly", "--rules=--"), "maxca charpoly: error: rule vector must be a nonempty 0/1 string: '--'"),
        (("enum", "--n=--"), "maxca enum: error: argument --n: invalid int value: '--'"),
        (("enum", "--n", "4", "--format=--"),
         "maxca enum: error: argument --format: invalid choice: '--' (choose from 'paper', 'tsv')"),
        (("stream", "--rules", "10", "--bits=--"), "maxca stream: error: argument --bits: invalid int value: '--'"),
    ])
    def test_usage_error_line(self, capsys, argv, line):
        assert run_main(capsys, *argv) == (2, "", line + "\n")

    @pytest.mark.parametrize("argv, canonical", [
        (("charpoly", "--rules=0110"), ("charpoly", "--rules", "0110")),
        (("enum", "--n", "4", "--form", "tsv"), ("enum", "--n", "4", "--format", "tsv")),
        (("enum", "--n=3", "--n", "4"), ("enum", "--n", "4")),
    ])
    def test_spelling_prints_what_the_canonical_one_does(self, capsys, argv, canonical):
        expected = run_main(capsys, *canonical)
        assert expected[0] == 0 and expected[1]
        assert run_main(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("enum", "--help")])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: maxca")

    def test_top_help_names_every_command(self, capsys):
        out = run_main(capsys, "--help")[1]
        for command, (_, text, _) in cli._COMMANDS.items():
            assert f"  {command}" in out and text in out

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_command_help_names_each_option(self, capsys, command):
        out = run_main(capsys, command, "-h")[1]
        for name, (_, _, text) in cli._COMMANDS[command][2].items():
            assert f"  {name}" in out and text in out

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the reader keeps Python 3.11's argparse wording")
    def test_reads_argv_as_argparse_did(self):
        parser = _argparse_parser()
        rng = random.Random(19)
        outcomes = set()
        for _ in range(5000):
            argv = _random_argv(rng)
            # argparse stores [] for `--opt=--`; the reader takes the '--'
            # as the value.
            if any(token.endswith("=--") for token in argv):
                continue
            expected = _outcome(parser.parse_args, argv)
            assert _outcome(cli._parse, argv) == expected, argv
            outcomes.add(expected[0])
        assert outcomes == {"namespace", "help", "error"}


def _argparse_parser():
    """The stdlib parser that cli's own reader replaced, rebuilt from
    cli._COMMANDS: one subparser per command, each error raised as its
    one line, and each help request raised with the prog it is for."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli._Exit(2, f"{self.prog}: error: {message}\n")

        def print_help(self, file=None):
            raise cli._Exit(0, self.prog)

    parser = Parser(prog="maxca")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, options) in cli._COMMANDS.items():
        sub = commands.add_parser(command)
        for name, (kind, default, _) in options.items():
            if kind is bool:
                sub.add_argument(name, action="store_true")
                continue
            required = default is cli._REQUIRED
            sub.add_argument(
                name, type=int if kind is int else None, choices=kind if isinstance(kind, tuple) else None,
                default=None if required else default, required=required,
            )
    return parser


def _outcome(parse, argv):
    # ("namespace", fields), ("help", prog) or ("error", its line).
    try:
        return "namespace", vars(parse(argv))
    except cli._Exit as exc:
        code, text = exc.args
        if code:
            return "error", text
        # cli's help text opens with "usage: PROG [-h]".
        return "help", text.removeprefix("usage: ").partition(" [-h]")[0]


_OPTION_NAMES = sorted({name for _, _, options in cli._COMMANDS.values() for name in options} | {"--help"})
_ARGV_VALUES = ("4", "0", "-1", "paper", "tsv", "0110", "1101", "")
_ARGV_ODD = (
    "-h", "-hh", "-hx", "-hhx", "-h=h", "--", "-", "-x", "-25", "-2.5", "-.5", "-1.", "-1e3", "-1 2",
    "x", "csv", "a b", "1_0", "--rules=", "frobnicate",
)


def _random_argv(rng):
    # Command and option names, their prefixes, `=` forms, '--', -h and
    # its repeats, negative numbers and bad values. Most option names
    # are the command's own and come with a value, so that some argv
    # parse.
    command = rng.choice(list(cli._COMMANDS))
    own = list(cli._COMMANDS[command][2])

    def tokens():
        roll = rng.random()
        if roll < 0.6:
            name = rng.choice(own if rng.random() < 0.8 else _OPTION_NAMES)
            if rng.random() < 0.3:
                name = name[:rng.randint(3, len(name))]
            if rng.random() < 0.2:
                return [name + "=" + rng.choice(_ARGV_VALUES + _ARGV_ODD)]
            return [name, rng.choice(_ARGV_VALUES)] if rng.random() < 0.6 else [name]
        if roll < 0.7:
            return [rng.choice(_ARGV_VALUES)]
        if roll < 0.75:
            word = rng.choice(list(cli._COMMANDS))
            return [word[:rng.randint(1, len(word))]]
        return [rng.choice(_ARGV_ODD)]

    argv = tokens() if rng.random() < 0.1 else []
    argv += tokens() if rng.random() < 0.1 else [command]
    for _ in range(rng.randint(0, 4)):
        argv += tokens()
    return argv


class TestNameResolution:
    # `maxca.cli` imports a handler's names from their owners on first
    # use; a binding in `maxca.cli` itself (the traced run's wrappers, a
    # test's patch) wins.
    @pytest.mark.parametrize("name", sorted(cli._OWNERS))
    def test_name_is_the_owners_object(self, name):
        owner = importlib.import_module(f"maxca.{cli._OWNERS[name]}")
        assert getattr(cli, name) is getattr(owner, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'maxca\.cli' has no attribute 'no_such_name'$"):
            cli.no_such_name
        assert not hasattr(cli, "no_such_name")

    def test_binding_in_cli_wins(self, capsys, monkeypatch):
        calls = []
        fn = cli.is_irreducible
        monkeypatch.setattr(cli, "is_irreducible", lambda p: calls.append(p) or fn(p))
        assert run_main(capsys, "primitive", "--poly", "11111")[0] == 0
        assert len(calls) == 1

    def test_owner_patch_is_read_through_and_not_kept(self, capsys, monkeypatch):
        import maxca.primitivity as primitivity

        # As in a fresh process: nothing bound in maxca.cli yet.
        monkeypatch.delitem(vars(cli), "is_irreducible", raising=False)
        calls = []
        fn = primitivity.is_irreducible
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(primitivity, "is_irreducible", lambda p: calls.append(p) or fn(p))
            assert run_main(capsys, "primitive", "--poly", "11111")[0] == 0
        assert len(calls) == 1
        assert cli.is_irreducible is primitivity.is_irreducible
