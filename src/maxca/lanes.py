"""The listing of the primitive polynomials of degree n, as one
bit-sliced Berlekamp-Massey pass over every decimation of an m-sequence.

`primitivity.enumerate_primitive` checks the degree, finds the least
primitive p0 by order tests, hands it here and sorts what comes back;
everything between lives in this module. The m-sequence s of p0 is read once, from the
block kernel of gf2poly, as one ASCII digit per term. For each coset
leader k coprime to the period, the decimation s[k*i mod period] is an
m-sequence whose minimal polynomial is primitive, and each cyclotomic
coset gives a distinct one. The decimations run as the bit lanes of big
ints: term i of every decimation is one word, and one pass of Massey's
algorithm over 2n words, with no branch per lane, gives every
polynomial. `_berlekamp_massey`, one sequence at a time, is its test
oracle.

`_massey_lanes` reads its bit lanes back into ints through one
transpose. Of the `maxca` commands, only `enum` and `primpoly-list`
import this module, both for the listing, so the others (every stream
and audit query) do not compile it.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import islice
from operator import add, and_, itemgetter, xor

from .gf2poly import _first_bits, _format_lsb, _recurrence_blocks, _reverse_bits

# Lanes per pass: one pass up to n = 18, and at n = 24 seventeen, whose
# index lists stay near 0.6 MB each.
_LANES = 1 << 14


def _primitive_bits(p0: int, n: int) -> list[int]:
    # Every primitive polynomial of degree n, as coefficient bits in the
    # order of their coset leaders, from p0, a primitive one: the
    # minimal polynomial of each decimation of p0's m-sequence by a
    # leader coprime to the period. Each decimation must have linear
    # complexity n.
    period = (1 << n) - 1
    digits = _m_sequence(p0, n)
    leaders = (k for k in _coset_leaders(n) if math.gcd(k, period) == 1)
    found = []
    while lanes := list(islice(leaders, _LANES)):
        found += _massey_lanes(_decimations(digits, period, lanes, 2 * n), n, len(lanes))
    return found


def _m_sequence(p: int, n: int) -> bytearray:
    # One period (2^n - 1 terms) of the sequence that obeys p, from the
    # impulse seed, one ASCII digit per term. Appended block by block,
    # so the period is never held twice.
    digits = bytearray()
    for block, bits in _first_bits(_recurrence_blocks(p, [1] + [0] * (n - 1)), (1 << n) - 1):
        digits += _format_lsb(block, bits).encode()
    return digits


def _coset_leaders(n: int):
    # Smallest member of each cyclotomic coset {k * 2^j mod 2^n - 1} of
    # size n: multiplying by 2 rotates k's n-bit pattern, so these are
    # the binary Lyndon words of length n (Duval's generator, O(n)
    # memory), in ascending order. One step repeats the word to length
    # n, drops its trailing 1s and sets its last character to 1.
    word = "0"
    while word:
        if len(word) == n:
            yield int(word, 2)
        word = (word * -(-n // len(word)))[:n].rstrip("1")
        if word:
            word = word[:-1] + "1"


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
        # (itemgetter of one index returns the item, not a tuple.) The
        # gathered terms are digits already, so the parse is unchecked:
        # _parse_lsb's check would build a set of every word's digits.
        yield int(bytes(terms if len(idx) > 1 else [terms])[::-1], 2)


def _massey_lanes(words, n: int, lanes: int) -> list[int]:
    # What _berlekamp_massey returns, for many sequences at once: bit l
    # of words[i] is term i of sequence l, and each sequence must have
    # linear complexity exactly n, which its first 2n terms pin down.
    # Returns the polynomials in lane order, or raises RuntimeError if a
    # lane ends with another linear complexity.
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
    # The words' LSB-first rows are joined into one string, so lane l's
    # digits are one slice.
    rows = "".join([_format_lsb(c, lanes) for c in conn])
    return [int(rows[lane::lanes], 2) for lane in range(lanes)]


def _berlekamp_massey(bits) -> int:
    """Characteristic polynomial of the shortest linear recurrence that
    generates the 0/1 sequence `bits`, as coefficient bits.

    A sequence of linear complexity L is pinned down by its first 2L
    terms. The all-zero sequence gives 1 (degree 0). The test oracle
    of the bit-sliced pass `_massey_lanes`, which the listing runs.
    """
    conn, prev, length, gap, window = 1, 1, 0, 1, 0
    for i, bit in enumerate(bits):
        # Bit j of window is s[i - j]; bit j of conn is the connection
        # coefficient c_j, so the discrepancy is their dot product.
        window = (window << 1) | bit
        if (conn & window).bit_count() & 1:
            if 2 * length <= i:
                conn, prev = conn ^ (prev << gap), conn
                length, gap = i + 1 - length, 1
                continue
            conn ^= prev << gap
        gap += 1
    # x^L * C(1/x): the connection polynomial read backwards.
    return _reverse_bits(conn, length + 1)
