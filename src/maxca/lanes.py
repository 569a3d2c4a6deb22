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
setting of cells 0..7, with one step for every cell. A diagonal and its
mirror image have one polynomial, so the walk compares each mirror pair
of cells as it sets the pair's outer cell, reads back only the diagonal
of each mirror pair whose mask is at most its reversal, and each hit
gives its mirror too. It returns only the hits; the cascade counts are
`enumerator.filter_stats`'s closed forms.
Both kernels read their lanes back into ints through one transpose,
`_lane_ints`. Of the `maxca` commands, only `enum` and `primpoly-list`
import this module, so the others (every stream and audit query) do
not compile it.
"""

from __future__ import annotations

import math
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
    return [bits for _, bits in _lane_ints(conn, lanes)]


def _lane_ints(words, lanes: int, live: int | None = None):
    # Bit l of every word, the first word the most significant, read as
    # one int: yields (l, that int) for each lane l below lanes, or only
    # for the lanes whose bit is set in live. The words' LSB-first rows
    # are joined into one string, so lane l's digits are one slice.
    rows = "".join([_format_lsb(w, lanes) for w in words])
    chosen = range(lanes)
    if live is not None:
        chosen = compress(chosen, map("1".__eq__, _format_lsb(live, lanes)))
    for lane in chosen:
        yield lane, int(rows[lane::lanes], 2)


def _charpoly_lanes(n: int, targets: frozenset[int]) -> list[tuple[int, int, int]]:
    # What enumerator._scan returns, for n >= 8 cells: every diagonal
    # whose characteristic polynomial is in targets, as (polynomial
    # bits, reversed diagonal mask, diagonal mask). Lane l holds
    # the diagonals whose cells 0..7 are set as l, and coefficient j of
    # p_k over every lane is one word. The cells are walked depth first:
    # a lane cell has one child, flagged by its word, and a cell from 8
    # on has two, flagged 0 and full, so diagonals that share their high
    # cells share those steps, and each leaf finishes 256 of them.
    lanes = 1 << _LANE_CELLS
    full = (1 << lanes) - 1
    # Bit l of cell k's flag word is bit k of l.
    cells = [sum(1 << lane for lane in range(lanes) if lane >> k & 1) for k in range(_LANE_CELLS)]
    hits = []
    # (k, flags of cells 8..k-1, keep, p_{k-1}, p_k) from p_{-1} = 0,
    # p_0 = 1, where keep holds the lanes whose mask is at most its
    # reversal on the pairs of cells compared so far.
    stack = [(0, 0, full, [], [full])]
    while stack:
        k, high, keep, prev, cur = stack.pop()
        if k < n:
            # p_{k+1} = x p_k + p_{k-1}, plus p_k where cell k is rule 150.
            base = list(map(xor, [0, *cur], prev + [0, 0]))
            # A diagonal and its mirror image have one polynomial, since
            # reversal conjugates T, so only the lanes whose mask is at
            # most its reversal are read back. Setting an outer cell k
            # (i < k) compares it with cell i = n-1-k; the walk meets the
            # pairs from the middle out, so the outer pair decides: where
            # cell k is set the mask stays at most its reversal only if
            # cell i is set and it was so already; where it is clear, if
            # cell i is set or it was so already.
            i = n - 1 - k
            inner = cells[i] if i < _LANE_CELLS else full * (high >> i & 1)
            for flags in (cells[k],) if k < _LANE_CELLS else (0, full):
                step = [b ^ flags & c for b, c in zip(base, cur + [0])] if flags else base
                fold = flags & inner & keep | ~flags & (inner | keep) if i < k else keep
                stack.append((k + 1, high | (flags == full) << k, fold, cur, step))
            continue
        # A polynomial of even weight has the factor x + 1; one with a
        # zero constant term has the factor x. Targets hold neither, so
        # only the rest are read, and each hit gives its mirror too.
        odd = reduce(xor, cur)
        live = odd & cur[0]
        for lane, bits in _lane_ints(cur[::-1], lanes, live & keep):
            if bits in targets:
                mask = high | lane
                mirror = _reverse_bits(mask, n)
                hits.append((bits, mirror, mask))
                if mirror != mask:
                    hits.append((bits, mask, mirror))
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
