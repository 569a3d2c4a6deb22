"""Bundled reference table of maximum-length rule vectors, n = 2..12.

The dataset ships as a plain text file (one `n poly rv` row per line)
so it stays auditable and diffable; nothing is hardcoded in source.
Every row can be re-verified from scratch: recompute the characteristic
polynomial, test primitivity, and measure the actual cycle length of
the running automaton by jump-ahead at every n (n steps, then powers of
x modulo the characteristic polynomial), checked against raw simulation
on every row in the tests. A failing row is a finding about the data,
reported with full diagnostics and never silently dropped or edited.
"""

from __future__ import annotations

import os

# cycle_length_from is uncalled; perfbench/layertrace.py wraps it here (ROADMAP items 18, 10).
from .automaton import _cycle_length_jump, cycle_length_from, unit_seed
from .charpoly import RuleVector, characteristic_polynomial
from .gf2poly import _Record, format_poly, parse_poly
from .primitivity import is_primitive

__all__ = [
    "TableRow",
    "RowVerdict",
    "VerificationReport",
    "load_rows",
    "verify_row",
    "verify_all",
]

_DATA = "data/maxlen_rules.txt"


class TableRow(_Record):
    """One printed (cell count, polynomial, rule vector) triple."""

    __slots__ = ("n", "poly_str", "rv_str")

    n: int
    poly_str: str
    rv_str: str

    def __init__(self, n: int, poly_str: str, rv_str: str):
        if parse_poly(poly_str).degree != n:
            raise ValueError(f"polynomial must have degree {n}: {poly_str!r}")
        if len(RuleVector(rv_str)) != n:
            raise ValueError(f"rule vector must have {n} cells: {rv_str!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "poly_str", poly_str)
        object.__setattr__(self, "rv_str", rv_str)


class RowVerdict(_Record):
    """Outcome of the three checks for one row."""

    __slots__ = ("row", "computed_poly", "charpoly_match", "poly_primitive", "cycle_length")

    row: TableRow
    computed_poly: str
    charpoly_match: bool
    poly_primitive: bool
    cycle_length: int | None

    @property
    def passed(self) -> bool:
        return (
            self.charpoly_match
            and self.poly_primitive
            and self.cycle_length == (1 << self.row.n) - 1
        )

    def reason(self) -> str:
        """Compact diagnostic for the errata file."""
        period = (1 << self.row.n) - 1
        parts = []
        if not self.charpoly_match:
            parts.append(f"charpoly(rv)={self.computed_poly} != printed poly")
        if not self.poly_primitive:
            parts.append("printed poly not primitive")
        if self.cycle_length != period:
            parts.append(f"cycle={self.cycle_length} expected {period}")
        if not parts:
            parts.append("ok")
        return "; ".join(parts)


class VerificationReport(_Record):
    __slots__ = ("total", "passed", "failures")

    total: int
    passed: int
    failures: tuple[RowVerdict, ...]

    def errata_lines(self) -> list[str]:
        """Failures in the dataset's row format plus a reason column."""
        return [
            f"{v.row.n} {v.row.poly_str} {v.row.rv_str} {v.reason()}"
            for v in self.failures
        ]

    def write_errata(self, path) -> None:
        with open(path, "w") as f:
            f.write("# Rows that failed re-verification; reason appended.\n")
            for line in self.errata_lines():
                f.write(line + "\n")


def _parse_line(line: str, lineno: int) -> TableRow | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    parts = body.split()
    if len(parts) != 3:
        raise ValueError(f"line {lineno}: expected 'n poly rv', got {line!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"line {lineno}: bad cell count in {line!r}") from None
    return TableRow(n=n, poly_str=parts[1], rv_str=parts[2])


def load_rows(n: int | None = None) -> list[TableRow]:
    """The embedded rows, in print order, optionally filtered to one n."""
    with open(os.path.join(os.path.dirname(__file__), _DATA), encoding="utf-8") as f:
        text = f.read()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = _parse_line(line, lineno)
        if row is not None and (n is None or row.n == n):
            rows.append(row)
    return rows


def verify_row(row: TableRow) -> RowVerdict:
    """Re-derive one row: characteristic polynomial, primitivity of the
    printed polynomial, and the cycle length from the unit seed, measured
    on the automaton by jump-ahead at every n, checked against raw
    simulation on every row in the tests. Either print orientation of
    the rule vector matches: reversal conjugates T, so mirror images
    share the characteristic polynomial."""
    rv = RuleVector(row.rv_str)
    computed = characteristic_polynomial(rv)
    printed = parse_poly(row.poly_str)
    return RowVerdict(
        row,
        format_poly(computed),
        computed == printed,
        is_primitive(printed),
        _cycle_length_jump(rv, unit_seed(row.n)),
    )


def verify_all(n: int | None = None) -> VerificationReport:
    """Verify every embedded row (or just those for one n). A cell count
    the table has no row for is a ValueError, not an empty report."""
    table = load_rows()
    rows = [r for r in table if n is None or r.n == n]
    if not rows:
        raise ValueError(f"no table rows for n = {n}; the table covers n = {min(r.n for r in table)}..{max(r.n for r in table)}")
    verdicts = [verify_row(r) for r in rows]
    failures = tuple(v for v in verdicts if not v.passed)
    return VerificationReport(len(verdicts), len(verdicts) - len(failures), failures)
