"""
Running the automaton as a bit generator
========================================

A maximum-length automaton walks through every nonzero state before
repeating, so any single cell, watched over time, emits an m-sequence:
period 2^n - 1, with 2^(n-1) ones and 2^(n-1) - 1 zeros per period.
"""

import os
import sys

from maxca import (
    RuleVector,
    cycle_length_from,
    is_max_length,
    pack_bits,
    stream_bits,
    unit_seed,
)


def main() -> None:
    rv = RuleVector("00000110")
    print(f"rules {rv}: max length = {is_max_length(rv)}")
    print(f"measured period from unit seed: {cycle_length_from(rv, unit_seed(8))}")

    # One full period from cell 0.
    period = (1 << 8) - 1
    bits = list(stream_bits(rv, unit_seed(8), period, tap=0))
    print(f"first 32 bits: {''.join(map(str, bits[:32]))}")
    print(f"balance over one period: {sum(bits)} ones, {period - sum(bits)} zeros")

    # Different taps see shifted versions of the same sequence; the balance
    # property holds at every tap.
    for tap in (0, 3, 7):
        ones = sum(stream_bits(rv, unit_seed(8), period, tap=tap))
        print(f"tap {tap}: {ones} ones")

    # Bits pack 8 per byte, first bit in the low position, for file output.
    print(f"first 4 packed bytes: {pack_bits(bits[:32]).hex()}")

    # A non-maximal automaton stalls early: "00" has period 2, not 3.
    short = RuleVector("00")
    print(f"rules 00: period {cycle_length_from(short, unit_seed(2))} (max would be 3)")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): end quietly with
        # 128 + SIGPIPE, as the maxca command line does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
