"""The slow references that the fast paths are checked against, one copy
each: the tests import them, and so does tools/oracles.py, which runs
them over the whole range where they are affordable. Not a test module:
its name does not match test_*, so pytest collects nothing here."""

import random

from maxca.charpoly import _charpoly_bits
from maxca.gf2poly import Gf2Poly, _reverse_bits
from maxca.primitivity import factorize_mersenne, is_primitive

# The jump's cases are every (rule vector, seed) pair up to this n.
_JUMP_EVERY_MAX_N = 7


def odd_weight(n: int) -> frozenset[int]:
    """Every polynomial of degree n with odd weight and constant term 1:
    the candidates of the order test, and the targets that every
    diagonal passing the rejection cascade hits."""
    return frozenset(bits for bits in range((1 << n) | 1, 1 << (n + 1), 2) if bits.bit_count() & 1)


def per_diagonal(n: int, target_sets: list) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """One charpoly per diagonal, in mask order: for each target set,
    the (mask, polynomial bits) of the diagonals whose polynomial is in
    it, and how many diagonals each step of the rejection cascade takes
    (even weight, zero constant, not in the first target set, in it)."""
    hits = [[] for _ in target_sets]
    cascade = [0, 0, 0, 0]
    for mask in range(1 << n):
        bits = _charpoly_bits(mask, n)
        for found, targets in zip(hits, target_sets):
            if bits in targets:
                found.append((mask, bits))
        if not bits.bit_count() & 1:
            cascade[0] += 1
        elif not bits & 1:
            cascade[1] += 1
        else:
            cascade[3 if bits in target_sets[0] else 2] += 1
    return hits, cascade


def filter_primitive(n: int) -> list[int]:
    """The listing by order test: the odd-weight polynomials of degree n
    that are primitive, as ascending bits."""
    f = factorize_mersenne(n)
    return [bits for bits in sorted(odd_weight(n)) if is_primitive(Gf2Poly(bits), f)]


def jump_cases(n: int) -> list[tuple[int, int]]:
    """The (mask, seed bits) pairs that the jump is checked on at n:
    every pair to n = 7, every mask with the unit seed and three random
    seeds at n = 8, and 100 random pairs from n = 9, seeded with n."""
    if n <= _JUMP_EVERY_MAX_N:
        return [(mask, bits) for mask in range(1 << n) for bits in range(1, 1 << n)]
    rng = random.Random(n)
    if n == _JUMP_EVERY_MAX_N + 1:
        return [(mask, bits) for mask in range(1 << n) for bits in (1, *(rng.randrange(1, 1 << n) for _ in range(3)))]
    return [(rng.randrange(1 << n), rng.randrange(1, 1 << n)) for _ in range(100)]


def berlekamp_massey(bits) -> int:
    """Characteristic polynomial of the shortest linear recurrence that
    generates the 0/1 sequence `bits`, as coefficient bits.

    A sequence of linear complexity L is pinned down by its first 2L
    terms. The all-zero sequence gives 1 (degree 0). The reference of
    the bit-sliced pass `lanes._massey_lanes`, which the listing runs.
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
