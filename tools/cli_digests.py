"""Digest of what the maxca CLI prints, one line per command, for
comparing two source trees byte for byte.

    python3 tools/cli_digests.py [SRC] > digests.txt

SRC is the source tree to run (the directory that holds the `maxca`
package); it defaults to the src/ next to this script. Each command
runs as a `python3 -m maxca.cli` child with PYTHONPATH=SRC, in a fresh
working directory. A line holds the argv, the exit code, the sha256 of
stdout, the number of stderr lines and the sha256 of the --out or
--errata file ("-" when there is none), tab-separated. Run it on two
trees and compare the outputs, or their sha256.

The commands: `enum --n 2..16` in both formats, `primpoly-list --n
2..16`, the stream and audit commands of the benchmark's seeds 1-10
(from perfbench/workloads.py), `verify-tables` plain, --strict, --n 5
and --errata, usage errors that must exit 2 with one stderr line, then
`primpoly-list --n 17..20`, `enum --n 12 --jobs 4` in both formats (the
same stdout as without --jobs) and `enum --n 4 --jobs 0` (exit 2, one
stderr line), then `charpoly --rules` on vectors of 7, 8, 9 and 64
cells, `cycle --rules` at n = 9 and 12 (the jump path), `enum --n
17..20 --format tsv` (the larger lane scans), `enum --n 17..20`
in the paper format, and last the reading of argv: one argv per kind
of usage error (no or an unknown command, a missing option or value, a
bad int or choice, an ambiguous prefix, a value given to a flag, an
unknown option, a stray value) and three spellings that print what the
canonical one does (`--rules=0110`, the prefix `--form`, a repeated
`--n`). The later groups are appended so that the lines before them
still compare with the output of earlier versions of this script. None
of them runs longer than a few seconds.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Exit-2 cases: each limit and each malformed input, one line on stderr.
USAGE_ERRORS = [
    ("enum", "--n", "1"),
    ("enum", "--n", "21"),
    ("cycle", "--rules", "0" * 25),
    ("cycle", "--rules", "0" * 33, "--force"),
    ("cycle", "--rules", "0" * 64, "--force"),
    ("charpoly", "--rules", "0" * 65),
    ("primitive", "--poly", "0"),
    ("primitive", "--poly", "1"),
    ("primitive", "--poly", "1" + "0" * 32 + "1"),
    ("primitive", "--poly", "1" + "0" * 64 + "1"),
    ("primpoly-list", "--n", "1"),
    ("primpoly-list", "--n", "33"),
    ("verify-tables", "--n", "13"),
    ("verify-tables", "--n", "2", "--errata", "missing/errata.txt"),
]


# The argument reading: usage errors (exit 2, one stderr line), then
# spellings accepted as their canonical forms.
PARSE_CASES = [
    (),
    ("frobnicate",),
    ("enum",),
    ("enum", "--n"),
    ("cycle", "--rules", "1101", "--seed"),
    ("enum", "--n", "x"),
    ("enum", "--n", "4", "--format", "csv"),
    ("enum", "--n", "4", "--f", "tsv"),
    ("stream", "--rules", "10", "--bits", "8", "--ascii=1"),
    ("enum", "--n", "4", "--bogus"),
    ("enum", "--n", "4", "extra"),
    ("charpoly", "--rules=0110"),
    ("enum", "--n", "4", "--form", "tsv"),
    ("enum", "--n=3", "--n", "4"),
]


def _command_list() -> list[tuple[str, ...]]:
    from workloads import commands, make_inputs

    argvs = []
    for n in range(2, 17):
        argvs.append(("enum", "--n", str(n)))
        argvs.append(("enum", "--n", str(n), "--format", "tsv"))
    argvs += [("primpoly-list", "--n", str(n)) for n in range(2, 17)]
    for workload in ("stream", "audit"):
        for seed in range(1, 11):
            argvs += [cmd.args for cmd in commands(workload, make_inputs(workload, seed))]
    argvs += [
        ("verify-tables",),
        ("verify-tables", "--strict"),
        ("verify-tables", "--n", "5"),
        ("verify-tables", "--errata", "errata.txt"),
    ]
    argvs += USAGE_ERRORS
    argvs += [("primpoly-list", "--n", str(n)) for n in range(17, 21)]
    argvs += [
        ("enum", "--n", "12", "--jobs", "4"),
        ("enum", "--n", "12", "--jobs", "4", "--format", "tsv"),
        ("enum", "--n", "4", "--jobs", "0"),
    ]
    # charpoly on either side of 8 cells, and the jump path of `cycle`.
    argvs += [
        ("charpoly", "--rules", rules)
        for rules in ("1101001", "00000110", "101100111", "0110100110010110" * 4)
    ]
    argvs += [("cycle", "--rules", "000001100"), ("cycle", "--rules", "110100101011")]
    argvs += [("enum", "--n", str(n), "--format", "tsv") for n in range(17, 21)]
    argvs += [("enum", "--n", str(n)) for n in range(17, 21)]
    argvs += PARSE_CASES
    return argvs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(src: str, argv: tuple[str, ...]) -> str:
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run(
            [sys.executable, "-m", "maxca.cli", *argv],
            cwd=work, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        )
        out = "-"
        for flag in ("--out", "--errata"):
            path = os.path.join(work, argv[argv.index(flag) + 1]) if flag in argv else None
            if path and os.path.exists(path):
                with open(path, "rb") as f:
                    out = _sha256(f.read())
            elif path:
                out = "missing"
    stderr_lines = run.stderr.count(b"\n")
    return "\t".join((" ".join(argv), str(run.returncode), _sha256(run.stdout), str(stderr_lines), out))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: cli_digests.py [SRC]", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0] if argv else os.path.join(REPO, "src"))
    if not os.path.isfile(os.path.join(src, "maxca", "cli.py")):
        print(f"cli_digests.py: no maxca package under {src}", file=sys.stderr)
        return 2
    # The workload inputs are drawn with the library under test.
    sys.path[:0] = [src, os.path.join(REPO, "perfbench")]
    for cmd in _command_list():
        print(_digest(src, cmd), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
