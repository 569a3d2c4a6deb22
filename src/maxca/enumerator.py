"""Exhaustive search for maximum-length rule vectors.

Scans every one of the 2^n main diagonals of the tridiagonal transition
matrix, computes the characteristic polynomial, and keeps the diagonals
whose polynomial is in the set of primitive polynomials of degree n.
That set is built once, by decimation (`primitivity._listing`, the
bits that `enumerate_primitive` sorts into records), so no order test
runs per diagonal, and the scan returns only its hits. How
the diagonals fall through the rejection cascade (even coefficient
weight, zero constant term, not primitive, hit) needs no scan: each
count has a closed form (`filter_stats`). One function, `_scan`, runs
the scan, one way at every n: 2^min(n, 8) lanes, one per setting of
cells 0..min(n, 8)-1, each started from one charpoly of those cells,
then a depth-first walk over the cells from 8 on for all lanes at once.
That walk is SIMD within a register (Fisher & Dietz, LCPC 1998): each
diagonal's p_k is one slot of a single int, so a step is a few int
operations for all lanes, and each leaf reads its polynomials back in
one C call. A vector and its mirror image have one polynomial
(reversal conjugates T), so from 16 cells on, where a leaf's lane cells
and its top cells are disjoint, each leaf reads back only the lanes
that hold one diagonal of each mirror pair, about half of them, and
each hit gives its mirror too. Each hit is a (polynomial bits, mask)
pair, and by the same symmetry each mask is also the text value (the
text, cell 0 leftmost, read as a binary number) of a hit with that
polynomial. `_maxlen_hits` returns the sorted pairs, which are the
output in order: `enum` prints them as they are, and `enumerate_maxlen`
builds its records from the same list.
"""

import sys
from itertools import compress, groupby
from operator import itemgetter

from .charpoly import RuleVector, _charpoly_bits, reverse
from .gf2poly import Gf2Poly, _Record, _reverse_bits, format_poly
# factorize_mersenne is not called here; it stays bound because
# perfbench/layertrace.py wraps maxca.enumerator's names, this one too.
from .primitivity import _listing, factorize_mersenne, is_primitive, primitive_count

__all__ = [
    "EXHAUSTIVE_CAP",
    "MaxLenEntry",
    "FilterStats",
    "enumerate_maxlen",
    "rule_vectors_for",
    "filter_stats",
]

# The listing and the scan, all that `enum` runs, take about 0.15 s at
# n = 20 in-process on one CPU of a 2-vCPU VM (enumerate_maxlen's
# records add about 0.15 s), and the cost roughly doubles with each
# cell; beyond it callers must opt in explicitly.
EXHAUSTIVE_CAP = 20

# The most cells that the scan's lanes set: lane l sets cells
# 0..min(n, 8)-1 as the bits of l.
_LANE_CELLS = 8


class MaxLenEntry(_Record):
    """One (rule vector, primitive characteristic polynomial) pair."""

    __slots__ = ("n", "rule_vector", "polynomial")

    n: int
    rule_vector: RuleVector
    polynomial: Gf2Poly

    def is_palindrome(self) -> bool:
        """True when the rule vector is its own mirror image."""
        return self.rule_vector == reverse(self.rule_vector)


class FilterStats(_Record):
    """How the 2^n diagonals fell through the rejection cascade."""

    __slots__ = ("n", "total", "even_weight", "zero_constant", "not_primitive", "survivors")

    n: int
    total: int
    even_weight: int
    zero_constant: int
    not_primitive: int
    survivors: int


def _check_n(n: int, force: bool) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 cells, got {n}")
    if n > EXHAUSTIVE_CAP and not force:
        raise ValueError(
            f"exhaustive scan of 2^{n} diagonals exceeds the n<={EXHAUSTIVE_CAP} "
            "cap; use the force override to go beyond it"
        )


def _primitive_set(n: int) -> frozenset[int]:
    return frozenset(_listing(n))


def _scan(n: int, targets: frozenset[int]) -> list[tuple[int, int]]:
    # All 2^n diagonals whose polynomial is in targets, as (polynomial
    # bits, diagonal mask) pairs; a diagonal and its mirror share their
    # polynomial, so the same pairs read as (polynomial bits, text value)
    # list the hits' texts, cell 0 leftmost, with no reversed mask.
    # Targets may be any set of polynomials of degree n. Lane l holds
    # the diagonal whose cells 0..cells-1 are set as l, and its p_k is
    # one `width`-bit slot of a single int, the slot that a leaf reads
    # back as item l. The width is the least of 8/16/32/64 above n, so
    # no p_k (degree at most n) carries into the next slot. Each lane
    # starts from one charpoly of its cells; the cells from `cells` on
    # are walked depth first, two children each, so diagonals that share
    # their high cells share those steps, and each leaf finishes all the
    # lanes. Up to 8 cells the first entry is already a leaf.
    size = next(b for b in (1, 2, 4, 8) if 8 * b > n)
    cells = min(n, _LANE_CELLS)
    width, lanes = 8 * size, 1 << cells
    # p_cells in every slot, packed as a leaf reads the slots back.
    starts = b"".join(_charpoly_bits(lane, cells).to_bytes(size, sys.byteorder) for lane in range(lanes))
    cur = int.from_bytes(starts, sys.byteorder)
    # Lanes l and l + lanes/2 differ only in cell cells-1, so their
    # p_cells differ by p_{cells-1}, which the two share.
    half = width * lanes // 2
    low = (cur ^ cur >> half) & ((1 << half) - 1)
    prev = low | low << half
    cast = "BHIQ"[size.bit_length() - 1]
    # From 16 cells on, the lane cells 0..7 and the top cells n-8..n-1
    # are disjoint, and a leaf reads one diagonal of each mirror pair:
    # the mirror of high | lane has the top cells reversed, t, as its
    # lane, so the leaf reads the lanes below t, and lane t when the
    # middle cells 8..n-9 are at most their reversal (a palindrome then
    # is read once). Each hit also gives its mirror, rev_n(high) |
    # rev8(lane) << (n - 8), unless that is the hit itself.
    mirrored = n >= 2 * _LANE_CELLS
    if mirrored:
        tops = [_reverse_bits(lane, cells) << (n - cells) for lane in range(lanes)]
        middle = (1 << (n - cells)) - lanes
    hits = []
    # (k, cells `cells`..k-1 as set bits, p_{k-1}, p_k).
    stack = [(cells, 0, prev, cur)]
    while stack:
        k, high, prev, cur = stack.pop()
        if k < n:
            base = (cur << 1) ^ prev
            stack.append((k + 1, high, cur, base))
            stack.append((k + 1, high | 1 << k, cur, base ^ cur))
            continue
        read = lanes
        if mirrored:
            mirror = _reverse_bits(high, n)
            read = (mirror & (lanes - 1)) + ((high & middle) <= (mirror & middle))
        # The slots read back as ints with no loop in Python: the first
        # `read` of the int's bytes, viewed as an array of slot-wide items.
        polys = memoryview(cur.to_bytes(size * lanes, sys.byteorder))[: size * read].cast(cast).tolist()
        found = list(compress(range(read), map(targets.__contains__, polys)))
        hits += [(polys[lane], high | lane) for lane in found]
        if mirrored:
            hits += [(polys[lane], m) for lane in found if (m := mirror | tops[lane]) != high | lane]
    return hits


def _maxlen_hits(n: int, jobs: int, force: bool) -> list[tuple[int, int]]:
    # enumerate_maxlen's search, which `enum` prints from with no
    # records: its checks and the scan's hits against the primitive
    # set, sorted. Since a vector and its mirror share their
    # polynomial, the sorted (polynomial bits, mask) pairs are the
    # (polynomial, text value) pairs of the output, in order.
    _check_n(n, force)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    hits = _scan(n, _primitive_set(n))
    hits.sort()
    return hits


def enumerate_maxlen(n: int, *, jobs: int = 1, force: bool = False) -> list[MaxLenEntry]:
    """Every n-cell maximum-length rule vector with its polynomial.

    One scan of the 2^n diagonals against the set of primitive
    polynomials of degree n, which is built once, before the scan. The
    whole search runs in this process: jobs (>= 1) is accepted so that
    existing callers keep working, and changes nothing. Output is
    sorted by (polynomial binary value, rule-vector text value).
    """
    entries = []
    # A polynomial's vectors are adjacent once sorted; they share one
    # Gf2Poly. Each hit's mask t is a text value: the vector is rev t.
    for bits, group in groupby(_maxlen_hits(n, jobs, force), itemgetter(0)):
        p = Gf2Poly(bits)
        entries += [MaxLenEntry(n, RuleVector.from_mask(_reverse_bits(t, n), n), p) for _, t in group]
    return entries


def rule_vectors_for(p: Gf2Poly, *, force: bool = False) -> list[RuleVector]:
    """All rule vectors whose characteristic polynomial is the given
    primitive p; closed under mirror reversal.

    Raises if p is not primitive (caller contract).
    """
    if not is_primitive(p):
        raise ValueError(f"{format_poly(p)} is not primitive")
    n = p.degree
    _check_n(n, force)
    hits = _scan(n, frozenset((p.bits,)))
    return [RuleVector.from_mask(_reverse_bits(t, n), n) for _, t in sorted(hits)]


def _jacobsthal(k: int) -> int:
    return ((1 << k) - (-1) ** k) // 3


def filter_stats(n: int, *, force: bool = False) -> FilterStats:
    """Count how many diagonals each rejection step removes, from
    closed forms, with no listing and no scan.

    det(I + T) = p(1) = 0 on J(n) diagonals, J(k) = (2^k - (-1)^k)/3
    the Jacobsthal numbers; p(0) = 0 with p(1) = 1 on
    J(ceil(n/2)) * J(floor(n/2) + 1); and each primitive polynomial has
    exactly two rule vectors (Cattell & Muzio, IEEE TCAD 15(3), 1996),
    so 2 * primitive_count(n) survive. The first two are transfer-matrix
    counts (Stanley, Enumerative Combinatorics 1, 4.7) over the 16
    states (p_{k-1}(0), p_{k-1}(1), p_k(0), p_k(1)); the product form
    matches that matrix for every n = 2..64, and the tests check it up
    to MAX_FACTOR_N. With force, n reaches MAX_FACTOR_N, where
    primitive_count stops.
    """
    _check_n(n, force)
    even_weight = _jacobsthal(n)
    zero_constant = _jacobsthal((n + 1) // 2) * _jacobsthal(n // 2 + 1)
    survivors = 2 * primitive_count(n)
    not_primitive = (1 << n) - even_weight - zero_constant - survivors
    return FilterStats(n, 1 << n, even_weight, zero_constant, not_primitive, survivors)
