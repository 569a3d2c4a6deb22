"""Berlekamp-Massey on many sequences at once, each one a bit lane.

The listing of the primitive polynomials of degree n
(`primitivity.enumerate_primitive`) decimates one m-sequence by every
coset leader k coprime to its period and needs the minimal polynomial
of each decimation. Here the decimations run as the bit lanes of big
ints: term i of every decimation is one word, and one pass of Massey's
algorithm over 2n words, with no branch per lane, gives every
polynomial. `primitivity._berlekamp_massey`, one sequence at a time, is
its test oracle. Only the listing imports this module, so the commands
that never list (every stream and audit query) do not compile it.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import add, and_, itemgetter, xor

# Lanes per pass: one pass up to n = 18, and at n = 24 seventeen, whose
# index lists stay near 0.6 MB each.
_LANES = 1 << 14


def _minimal_polynomials(packed: bytes, period: int, leaders, n: int) -> list[int]:
    # The minimal polynomial of each decimation s[k*i mod period] of the
    # packed sequence s, for k from leaders in order; each decimation
    # must have linear complexity n.
    digits = _digits(packed)
    leaders = iter(leaders)
    found = []
    while lanes := list(islice(leaders, _LANES)):
        found += _massey_lanes(_decimations(digits, period, lanes, 2 * n), n, len(lanes))
    return found


def _digits(seq: bytes) -> bytearray:
    # The packed sequence seq unpacked to one ASCII digit per bit.
    digits = bytearray(8 * len(seq))
    for j in range(8):
        digits[j::8] = seq.translate(bytes(48 | b >> j & 1 for b in range(256)))
    return digits


def _decimations(digits: bytearray, period: int, leaders: list[int], count: int):
    # The first count terms of the decimations s[k*i mod period] of the
    # sequence s that digits holds, one lane word per term: bit l of
    # word i is term i of the decimation by leaders[l]. Each word is one
    # itemgetter call and one int parse, and each index list is the
    # last one plus the leaders, reduced by one subtraction.
    idx = [0] * len(leaders)
    for i in range(count):
        if i:
            idx = [x - period if x >= period else x for x in map(add, idx, leaders)]
        terms = itemgetter(*idx)(digits)
        # (itemgetter of one index returns the item, not a tuple)
        yield int(bytes(terms if len(idx) > 1 else [terms])[::-1], 2)


def _massey_lanes(words, n: int, lanes: int) -> list[int]:
    # What primitivity._berlekamp_massey returns, for many sequences at
    # once: bit l of words[i] is term i of sequence l, and each sequence
    # must have linear complexity exactly n, which its first 2n terms
    # pin down. Returns the polynomials in lane order, or raises
    # RuntimeError if a lane ends with another linear complexity.
    #
    # No lane branches. With D = x^m * B (B the connection polynomial
    # before the last length change, m the steps since), each step is
    # C' = C + d*D and D' = x*(swap ? C : D), where swap = d and 2L <= i.
    # L is kept as e = i - 2L, two's complement over bit planes: 2L <= i
    # is e's sign clear, a length change L' = i + 1 - L gives
    # e' = -e - 1 = ~e, and any other step e' = e + 1. After 2n terms
    # L = n exactly where e = 0. Degrees above n are dropped: they can
    # reach C only in a lane whose L passes n.
    full = (1 << lanes) - 1
    conn, shifted = [full] + [0] * n, [0, full] + [0] * (n - 1)
    planes = [0] * ((2 * n).bit_length() + 1)
    recent = []  # recent[j] is term i - j, j <= n
    for word in words:
        recent = [word, *recent[:n]]
        d = reduce(xor, map(and_, conn, recent))
        swap = d & ~planes[-1]
        carry = full ^ swap
        for j, e in enumerate(planes):
            planes[j], carry = e ^ carry ^ swap, carry & e
        kept = [t ^ (swap & (t ^ c)) for c, t in zip(conn, shifted)]
        conn = [c ^ (d & t) for c, t in zip(conn, shifted)]
        shifted = [0] + kept[:n]
    if any(planes):
        raise RuntimeError(f"a decimation has linear complexity other than n={n}")
    # Polynomial of lane l: bit l of the coefficient words, c_0 highest.
    rows = [format(c, f"0{lanes}b")[::-1] for c in conn]
    return [int("".join(column), 2) for column in zip(*rows)]
