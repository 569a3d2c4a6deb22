"""The listing of the primitive polynomials of degree n, as one
bit-sliced Berlekamp-Massey pass over decimations of an m-sequence.

`primitivity.enumerate_primitive` checks the degree, finds the least
primitive p0 by order tests, hands it here with the distinct primes of
the period 2^n - 1 and sorts what comes back; everything between lives
in this module. For each k coprime to the period, the decimation
s[k*i mod period] of p0's m-sequence s is an m-sequence whose minimal
polynomial is primitive, and each cyclotomic coset {k * 2^j} gives a
distinct one. The decimation by -k runs s backwards, so its polynomial
is the reciprocal of k's: only one coset of each pair {k, -k} runs,
and its lane gives both polynomials. The leaders come from a sieve
over 0..2^(n-1)-1, in the buffer that then holds the m-sequence.

The m-sequence is read once, from the block kernel of gf2poly, as one
ASCII digit per term, in its trace phase s[t] = Tr(alpha^t), alpha a
root of p0. There s[2t] = s[t], so every decimation u has u[2i] = u[i]:
of the 2n terms that Massey's algorithm reads, only the n odd ones are
gathered. The decimations run as the bit lanes of big ints: term i of
every decimation is one word, and one pass of Massey's algorithm over
2n words, with no branch per lane, gives every polynomial, and checks
that each lane has linear complexity n, so a sequence out of its trace
phase raises instead of mislisting. Its test oracle, the scalar pass
over one sequence at a time, lives in the tests.

`_massey_lanes` reads its bit lanes back into ints through one
transpose. Of the `maxca` commands, only `enum` and `primpoly-list`
import this module, both for the listing, so the others (every stream
and audit query) do not compile it.
"""

import sys
from functools import reduce
from operator import and_, itemgetter, xor

from .gf2poly import _first_bits, _format_lsb, _recurrence_blocks, _reverse_bits

# Lanes per pass: one pass up to n = 18, and at n = 24 seventeen, whose
# index lists stay near 0.3 MB each. Passes twice as wide raised the
# peak RSS of `primpoly-list --n 24` by 0.5-1 MB.
_LANES = 1 << 13


def _primitive_bits(p0: int, n: int, primes) -> list[int]:
    # Every primitive polynomial of degree n, as coefficient bits, from
    # p0, a primitive one, and the distinct primes of 2^n - 1: the
    # minimal polynomial of each decimation of p0's m-sequence by a
    # pair leader, and its reciprocal. Each decimation must have linear
    # complexity n. One buffer of a byte per term holds first the sieve
    # of the leaders, then the m-sequence. Freeing a large block raises
    # glibc's mmap threshold, so a second buffer of that size came from
    # the heap and stayed resident after use: the peak RSS of
    # `primpoly-list --n 24` was 13 MB larger.
    period = (1 << n) - 1
    digits = bytearray(period)
    leaders = _pair_leaders(digits, n, primes)
    _m_sequence(p0, n, digits)
    found = []
    for start in range(0, len(leaders), _LANES):
        lanes = leaders[start : start + _LANES].tolist()
        polys = _massey_lanes(_decimations(digits, period, lanes, 2 * n), n, len(lanes))
        found += polys
        # Only x^2 + x + 1 is its own reciprocal: at n = 2, k = 1 and
        # -1 = 2 share a coset.
        found += [r for p in polys if (r := _reverse_bits(p, n + 1)) != p]
    return found


def _pair_leaders(sieve: bytearray, n: int, primes) -> memoryview:
    # One k from each pair of cyclotomic cosets {k * 2^j}, {-k * 2^j}
    # coprime to the period 2^n - 1, ascending: the least member of the
    # two, which is below half = 2^(n-1), since of r and period - r one
    # always is. The first half bytes of sieve, zeroed, stand for
    # 0..half-1. Marking 0 and the multiples of each prime leaves the
    # coprime k unmarked; each k found marks, for each of its n
    # rotations r (multiplying by 2 rotates k's n-bit pattern), whichever
    # of r and period - r is below half. The leaders come back as 4-byte
    # words, a memoryview of a bytearray: a list holds about 36 bytes per
    # int, at n = 24 for 138,240 of them, and the array module is a
    # shared library that each listing child would load, for about
    # 0.2 ms and 0.13 MB of peak RSS.
    period = (1 << n) - 1
    half = 1 << (n - 1)
    for q in primes:
        sieve[:half:q] = b"\1" * len(range(0, half, q))
    leaders = bytearray()
    k = sieve.find(0, 0, half)
    while k >= 0:
        leaders += k.to_bytes(4, sys.byteorder)
        r = k
        for _ in range(n):
            sieve[r if r < half else period - r] = 1
            r = (r << 1) % period
        k = sieve.find(0, k, half)
    return memoryview(leaders).cast("I")


def _trace_head(p: int, n: int) -> list[int]:
    # S_j = Tr(alpha^j) for j < n, alpha a root of p of degree n, from
    # p's coefficients c_i by Newton's identities over GF(2): S_0 = n
    # mod 2, and S_j = j*c_{n-j} + sum over 0 < i < j of c_{n-i}*S_{j-i}.
    head = [n & 1]
    for j in range(1, n):
        s = j & p >> (n - j)
        for i in range(1, j):
            s ^= p >> (n - i) & head[j - i]
        head.append(s & 1)
    return head


def _m_sequence(p: int, n: int, digits: bytearray) -> bytearray:
    # One period (2^n - 1 terms) of the sequence that obeys p, in its
    # trace phase, one ASCII digit per term, written block by block over
    # digits, a bytearray of that length, and returned.
    start = 0
    for block, bits in _first_bits(_recurrence_blocks(p, _trace_head(p, n)), len(digits)):
        digits[start : start + bits] = _format_lsb(block, bits).encode()
        start += bits
    return digits


def _decimations(digits: bytearray, period: int, leaders: list[int], count: int) -> list[int]:
    # The first count terms of the decimations u = s[k*i mod period] of
    # the sequence s that digits holds in its trace phase, one lane word
    # per term: bit l of word i is term i of the decimation by
    # leaders[l]. Term 0 is s[0] in every lane, and u[2i] = u[i], so
    # only the odd terms are gathered, each one itemgetter call and one
    # int parse over the indices k*i mod period.
    words = [(1 << len(leaders)) - 1 if digits[0] == ord("1") else 0]
    for i in range(1, count):
        if i % 2 == 0:
            words.append(words[i // 2])
            continue
        idx = [k * i % period for k in leaders]
        terms = itemgetter(*idx)(digits)
        # (itemgetter of one index returns the item, not a tuple.) The
        # gathered terms are digits already, so the parse is unchecked:
        # _parse_lsb's check would build a set of every word's digits.
        words.append(int(bytes(terms if len(idx) > 1 else [terms])[::-1], 2))
    return words


def _massey_lanes(words, n: int, lanes: int) -> list[int]:
    # What the tests' scalar Berlekamp-Massey returns, for many sequences
    # at once: bit l of words[i] is term i of sequence l, and each
    # sequence must have linear complexity exactly n, which its first 2n
    # terms pin down. Returns the polynomials in lane order, or raises
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
    # The words' LSB-first rows are joined into one string, so lane l's
    # digits are one slice.
    rows = "".join([_format_lsb(c, lanes) for c in conn])
    return [int(rows[lane::lanes], 2) for lane in range(lanes)]
