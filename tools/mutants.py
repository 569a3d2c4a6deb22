"""Mutation checks: each mutant is one edit to a copy of the tree, and
the test module named with it must fail on that copy.

    python3 tools/mutants.py [NAME ...]

Runs the named mutants, or all of them. For each, it copies src/,
tests/ and perfbench/ (one test reads perfbench/layertrace.py) into a
fresh temporary directory, replaces the one occurrence of the old text
in the file with the new text, runs `python -m pytest -q -x MODULE`
there with PYTHONPATH at the copy's src/, and prints the name with
`killed` (the module failed) or `survived` (it passed). It exits 1 if
a mutant survives, if pytest ends in any other way (no tests, a usage
error), or if an old text does not occur exactly once in its file,
which is checked for every mutant before any runs; 2 on an unknown
name. A mutant that no test can tell from the original does not
belong in the list. Since pytest stops at the first failure, a killed
mutant takes a few seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
_COPIED = ("src", "tests", "perfbench")

# (name, file, old text, new text, test module that must fail).
MUTANTS = [
    (
        "generated-init-replaces-own", "src/maxca/gf2poly.py",
        'if "__init__" not in cls.__dict__:',
        'if "__reduce__" not in cls.__dict__:',
        "tests/test_records.py",
    ),
    (
        "square-without-spread", "src/maxca/gf2poly.py",
        'r = _mod(int(format(r, "b"), 4), m)',
        'r = _mod(int(format(r, "b"), 2), m)',
        "tests/test_gf2poly.py",
    ),
    (
        "times-x-unreduced", "src/maxca/gf2poly.py",
        "            r <<= 1\n            if r & top:\n                r ^= m\n",
        "            r <<= 1\n",
        "tests/test_gf2poly.py",
    ),
    (
        "recurrence-one-cell-late", "src/maxca/charpoly.py",
        "    for i in range(1, n):\n",
        "    for i in range(2, n):\n",
        "tests/test_charpoly.py",
    ),
    (
        "step-ignores-cell-0-rule", "src/maxca/automaton.py",
        "    return ((bits << 1) ^ (bits >> 1) ^ (bits & mask)) & lim\n",
        "    return ((bits << 1) ^ (bits >> 1) ^ (bits & mask & ~1)) & lim\n",
        "tests/test_automaton.py",
    ),
    (
        "slid-window-bit-flipped", "src/maxca/gf2poly.py",
        "            del window[:n]\n",
        "            del window[:n]\n            window[0] ^= 1\n",
        "tests/test_automaton.py",
    ),
    (
        "enumerate-maxlen-drops-a-vector", "src/maxca/enumerator.py",
        "    hits = _scan(n, _primitive_set(n))\n    hits.sort()\n",
        "    hits = _scan(n, _primitive_set(n))\n    hits.sort()\n    del hits[-1]\n",
        "tests/test_consistency.py",
    ),
    (
        "zero-constant-wrong-even-factor", "src/maxca/enumerator.py",
        "_jacobsthal(n // 2 + 1)",
        "_jacobsthal((n + 1) // 2)",
        "tests/test_enumerator.py",
    ),
    (
        "trial-division-stops-at-2000", "src/maxca/primitivity.py",
        "    while d * d <= rest:\n",
        "    while d * d <= rest and d < 2000:\n",
        "tests/test_consistency.py",
    ),
    (
        "multiplicity-of-331-doubled", "src/maxca/primitivity.py",
        "        factors.append((rest, 1))\n",
        "        factors.append((rest, 2 if rest == 331 else 1))\n",
        "tests/test_consistency.py",
    ),
    (
        "is-primitive-skips-a-prime", "src/maxca/primitivity.py",
        "    for q in f.distinct_primes():\n",
        "    for q in f.distinct_primes()[1:]:\n",
        "tests/test_primitivity.py",
    ),
    (
        "period-drops-repeated-factor-power", "src/maxca/primitivity.py",
        "        factors[2] = (f.n - 1).bit_length()\n",
        "        factors[2] = 0\n",
        "tests/test_automaton.py",
    ),
    (
        "reciprocals-dropped", "src/maxca/lanes.py",
        "        found += [r for p in polys if (r := _reverse_bits(p, n + 1)) != p]\n",
        "",
        "tests/test_primitivity.py",
    ),
    (
        "even-row-copied-from-wrong-index", "src/maxca/lanes.py",
        "words.append(words[i // 2])",
        "words.append(words[i - 1])",
        "tests/test_primitivity.py",
    ),
    (
        "trace-head-without-j-term", "src/maxca/lanes.py",
        "        s = j & p >> (n - j)\n",
        "        s = 0\n",
        "tests/test_primitivity.py",
    ),
    (
        "massey-lanes-without-complexity-check", "src/maxca/lanes.py",
        "    if any(planes):\n",
        "    if False:\n",
        "tests/test_primitivity.py",
    ),
    (
        "decimation-index-added", "src/maxca/lanes.py",
        "idx = [k * i % period for k in leaders]",
        "idx = [(k + i) % period for k in leaders]",
        "tests/test_primitivity.py",
    ),
    (
        "slot-width-one-size-small", "src/maxca/enumerator.py",
        "if 8 * b > n)",
        "if 8 * b >= n)",
        "tests/test_enumerator.py",
    ),
    (
        "scan-hit-drops-high-cells", "src/maxca/enumerator.py",
        "(polys[lane], high | lane)",
        "(polys[lane], lane)",
        "tests/test_enumerator.py",
    ),
    (
        "lane-prev-from-one-half", "src/maxca/enumerator.py",
        "    prev = low | low << half\n",
        "    prev = low\n",
        "tests/test_enumerator.py",
    ),
    (
        "lane-seed-one-cell-short", "src/maxca/enumerator.py",
        "_charpoly_bits(lane, cells)",
        "_charpoly_bits(lane, cells - 1)",
        "tests/test_enumerator.py",
    ),
    (
        "record-text-unreversed", "src/maxca/enumerator.py",
        "RuleVector.from_mask(_reverse_bits(t, n), n), p)",
        "RuleVector.from_mask(t, n), p)",
        "tests/test_enumerator.py",
    ),
    (
        "enum-text-unpadded", "src/maxca/cli.py",
        'f"{{:b}} {{:0{n}b}}".format',
        'f"{{:b}} {{:b}}".format',
        "tests/test_cli.py",
    ),
    (
        "bound-skips-cli-bindings", "src/maxca/cli.py",
        "    return [bound[name] if name in bound else __getattr__(name) for name in names]\n",
        "    return [__getattr__(name) for name in names]\n",
        "tests/test_cli.py",
    ),
    (
        "argv-without-prefixes", "src/maxca/cli.py",
        "for n in names if n.startswith(name)]",
        "for n in names if n == name]",
        "tests/test_cli.py",
    ),
]


def _read(root: str, path: str) -> str:
    with open(os.path.join(root, path), encoding="utf-8") as f:
        return f.read()


def misplaced() -> list[str]:
    """The mutants whose old text does not occur exactly once in its
    file, each as 'name: N occurrences'."""
    return [
        f"{name}: {count} occurrences"
        for name, path, old, _, _ in MUTANTS
        if (count := _read(REPO, path).count(old)) != 1
    ]


def run(mutant) -> str:
    """'killed', 'survived' or 'error (pytest exit N)' for one mutant."""
    name, path, old, new, module = mutant
    tmp = tempfile.mkdtemp(prefix=f"mutant-{name}-")
    try:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for d in _COPIED:
            shutil.copytree(os.path.join(REPO, d), os.path.join(tmp, d), ignore=ignore)
        source = _read(tmp, path)
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
            f.write(source.replace(old, new))
        pythonpath = os.pathsep.join(filter(None, [os.path.join(tmp, "src"), os.environ.get("PYTHONPATH")]))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", module],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=pythonpath), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # pytest exits 1 when a test failed and 0 when all passed.
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv: list[str]) -> int:
    by_name = {m[0]: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"mutants.py: unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    problems = misplaced()
    for line in problems:
        print(f"mutants.py: old text of {line}", file=sys.stderr)
    if problems:
        return 1
    failed = 0
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        outcome = run(mutant)
        print(f"{mutant[0]}\t{outcome}", flush=True)
        failed += outcome != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
