"""
Finding every maximum-length rule vector
========================================

The search is brutally simple: try all 2^n diagonals, compute each
characteristic polynomial, and keep the primitive ones. The primitive
polynomials of degree n are listed once up front, so each diagonal
costs one set lookup; the stats still show how many fell to the even
coefficient count and the zero constant term, which no primitive
polynomial has.
"""

import os
import sys

from maxca import (
    enumerate_maxlen,
    filter_stats,
    parse_poly,
    primitive_count,
    rule_vectors_for,
)


def main() -> None:
    # All 6-cell winners, sorted by polynomial then vector.
    for e in enumerate_maxlen(6):
        print(f"n=6  poly {e.polynomial}  rules {e.rule_vector}")

    # Each primitive polynomial owns exactly one mirror pair of vectors, so
    # the tally is 2 * phi(2^n - 1) / n.
    for n in range(2, 13):
        entries = enumerate_maxlen(n)
        print(f"n={n:2d}: {len(entries):3d} vectors for {primitive_count(n):3d} polynomials")

    # Where did the other diagonals go? The stats show the filter cascade.
    s = filter_stats(8)
    print(
        f"n=8: {s.total} diagonals = {s.even_weight} even-weight + "
        f"{s.zero_constant} zero-constant + {s.not_primitive} non-primitive + "
        f"{s.survivors} survivors"
    )

    # The inverse query: which vectors realize a given primitive polynomial?
    vecs = rule_vectors_for(parse_poly("100011101"))
    print("vectors for 100011101:", ", ".join(str(v) for v in vecs))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): end quietly with
        # 128 + SIGPIPE, as the maxca command line does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
