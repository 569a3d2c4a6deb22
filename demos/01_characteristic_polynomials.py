"""
From rule vector to characteristic polynomial
=============================================

A hybrid 90/150 cellular automaton is described by one flag per cell:
0 means the cell XORs its two neighbors (rule 90), 1 means it XORs the
neighbors and itself (rule 150). That flag string is the main diagonal
of a tridiagonal GF(2) matrix, and the matrix's characteristic
polynomial decides whether the automaton is any good as a generator.
"""

import os
import sys

from maxca import RuleVector, characteristic_polynomial, is_primitive, reverse


def main() -> None:
    # The classic 8-cell example: cells 5 and 6 run rule 150, the rest rule 90.
    rv = RuleVector("00000110")
    p = characteristic_polynomial(rv)
    print(f"rules {rv}  ->  polynomial {p}")          # 100011101 = x^8+x^4+x^3+x^2+1
    print(f"primitive: {is_primitive(p)}")            # True: the CA is max-length

    # Mirroring the rule vector conjugates the matrix by the exchange
    # permutation, so the polynomial cannot change.
    print(f"mirror {reverse(rv)} -> polynomial {characteristic_polynomial(reverse(rv))}")

    # Not every diagonal wins. Two rule-90 cells give x^2 + 1 = (x + 1)^2,
    # which is reducible, so the two-cell CA "00" never reaches period 3.
    for rules in ("00", "10", "01", "11"):
        q = characteristic_polynomial(RuleVector(rules))
        print(f"rules {rules}: charpoly {q!s:>3}  primitive={is_primitive(q)}")

    # The recurrence behind characteristic_polynomial is exact, so even a
    # 20-cell polynomial is instantaneous.
    wide = RuleVector("01" * 10)
    print(f"20 cells: {characteristic_polynomial(wide)}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): end quietly with
        # 128 + SIGPIPE, as the maxca command line does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
