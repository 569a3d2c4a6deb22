"""
Auditing the bundled reference table
====================================

The package ships a 479-row reference table of (cell count, primitive
polynomial, rule vector) triples for n = 2..12. Nothing in it is
trusted: every row is re-derived from scratch by three independent
checks, and failing rows become errata, not silent edits.

Spoiler: the n=5 block of the source print is internally scrambled.
Each of its six vectors is genuinely maximum-length and each of its six
polynomials is genuinely primitive, but the rows pair them up wrong.
"""

import os
import sys

from maxca import (
    RuleVector,
    characteristic_polynomial,
    load_rows,
    verify_all,
    verify_row,
)


def main() -> None:
    # One row, three checks: recomputed polynomial, primitivity, measured cycle.
    row = load_rows(8)[0]
    v = verify_row(row)
    print(f"row n={row.n} poly={row.poly_str} rules={row.rv_str}")
    print(f"  charpoly match: {v.charpoly_match}")
    print(f"  polynomial primitive: {v.poly_primitive}")
    print(f"  measured cycle: {v.cycle_length} (want {(1 << row.n) - 1})")

    # The full audit takes well under a second.
    report = verify_all()
    print(f"\nfull audit: {report.passed}/{report.total} rows pass")
    for bad in report.failures:
        truth = characteristic_polynomial(RuleVector(bad.row.rv_str))
        print(
            f"  n={bad.row.n}: printed ({bad.row.poly_str}, {bad.row.rv_str}) "
            f"but {bad.row.rv_str} really belongs to {truth}"
        )

    # The errata lines carry the same diagnosis in the dataset's format.
    print("\nerrata:")
    for line in verify_all(5).errata_lines():
        print(" ", line)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): end quietly with
        # 128 + SIGPIPE, as the maxca command line does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
