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

The module also holds the scan of `enumerator._scan` for 8 or more
cells, `_charpoly_lanes`: one depth-first walk over the n cells that
runs the charpoly recurrence over 256 diagonals at once, one lane per
setting of cells 0..7, with one step for every cell. It is SIMD within
a register (Fisher & Dietz, LCPC 1998): each diagonal's p_k is one slot
of w bits of a single int, w the least of 8/16/32/64 above n, so each
step is a few int operations for all 256, and each leaf reads its 256
polynomials back in one C call. A diagonal and its mirror image have
one polynomial, so each hit gives its mirror too. It returns only the
hits; the cascade counts are `enumerator.filter_stats`'s closed forms.
`_massey_lanes` reads its bit lanes back into ints through one
transpose, `_lane_ints`. Of the `maxca` commands, only `enum` and
`primpoly-list` import this module, so the others (every stream and
audit query) do not compile it.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import compress, islice
from operator import add, and_, itemgetter, xor

from .gf2poly import _first_bits, _format_lsb, _recurrence_blocks, _reverse_bits

# Lanes per pass: one pass up to n = 18, and at n = 24 seventeen, whose
# index lists stay near 0.6 MB each.
_LANES = 1 << 14

# Cells that the scan's lanes set: lane l sets cells 0..7 as the bits of l.
_LANE_CELLS = 8


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
    return _lane_ints(conn, lanes)


def _lane_ints(words, lanes: int) -> list[int]:
    # Bit l of every word, the first word the most significant, read as
    # one int, for each lane l below lanes, in lane order. The words'
    # LSB-first rows are joined into one string, so lane l's digits are
    # one slice.
    rows = "".join([_format_lsb(w, lanes) for w in words])
    return [int(rows[lane::lanes], 2) for lane in range(lanes)]


def _charpoly_lanes(n: int, targets: frozenset[int]) -> list[tuple[int, int, int]]:
    # What enumerator._scan returns, for n >= 8 cells: every diagonal
    # whose characteristic polynomial is in targets, any set of degree-n
    # polynomials, as (polynomial bits, reversed diagonal mask, diagonal
    # mask). Lane l holds the diagonal whose cells 0..7 are set as l,
    # and its p_k is slot l of one int, `width` bits from bit l * width.
    # The width is the least of 8/16/32/64 above n, so no p_k (degree
    # at most n) carries into the next slot. The lane cells are stepped
    # once; the cells from 8 on are walked depth first, two children
    # each, so diagonals that share their high cells share those steps,
    # and each leaf finishes 256 of them.
    size = next(b for b in (1, 2, 4, 8) if 8 * b > n)
    width, lanes = 8 * size, 1 << _LANE_CELLS
    full = (1 << width * lanes) - 1
    # p_{k+1} = x p_k + p_{k-1}, plus p_k where cell k is rule 150, from
    # p_{-1} = 0 and p_0 = 1 in every slot.
    prev, cur = 0, full // ((1 << width) - 1)
    for k in range(_LANE_CELLS):
        # All ones in the slot of each lane whose bit k is set: runs of
        # 2^k slots, every other run.
        run = width << k
        flags = (((1 << run) - 1) << run) * (full // ((1 << 2 * run) - 1))
        prev, cur = cur, (cur << 1) ^ prev ^ (flags & cur)
    # A diagonal and its mirror image have one polynomial, since
    # reversal conjugates T. So of each mirror pair of hits only the one
    # whose mask is at most its reversal is kept, and its mirror, if
    # another, follows it.
    reversed_lanes = [_reverse_bits(lane, n) for lane in range(lanes)]
    cast = "BHIQ"[size.bit_length() - 1]
    hits = []
    # (k, cells 8..k-1 as set bits, p_{k-1}, p_k).
    stack = [(_LANE_CELLS, 0, prev, cur)]
    while stack:
        k, high, prev, cur = stack.pop()
        if k < n:
            base = (cur << 1) ^ prev
            stack.append((k + 1, high, cur, base))
            stack.append((k + 1, high | 1 << k, cur, base ^ cur))
            continue
        # The 256 slots read back as ints with no loop in Python: the
        # int's bytes, viewed as an array of slot-wide items.
        polys = memoryview(cur.to_bytes(size * lanes, sys.byteorder)).cast(cast).tolist()
        reversed_high = _reverse_bits(high, n)
        for lane in compress(range(lanes), map(targets.__contains__, polys)):
            mask, mirror = high | lane, reversed_high | reversed_lanes[lane]
            if mask <= mirror:
                hits.append((polys[lane], mirror, mask))
                if mirror != mask:
                    hits.append((polys[lane], mask, mirror))
    return hits


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
