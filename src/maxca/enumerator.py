"""Exhaustive search for maximum-length rule vectors.

Scans every one of the 2^n main diagonals of the tridiagonal transition
matrix, computes the characteristic polynomial, and keeps the diagonals
whose polynomial is in the set of primitive polynomials of degree n.
That set is built once, by decimation (`enumerate_primitive`), so no
order test runs per diagonal, and the scan returns only its hits. How
the diagonals fall through the rejection cascade (even coefficient
weight, zero constant term, not primitive, hit) needs no scan: each
count has a closed form (`filter_stats`). From 8 cells on, the scan
runs 256 diagonals at once (`lanes._charpoly_lanes`), one per setting
of cells 0..7, each polynomial a slot of one int, and a hit gives its
mirror image too; only n < 8 takes one charpoly per diagonal. Each hit
comes with its mask reversed, the sort key of the output, so the
results sort as plain tuples.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .charpoly import RuleVector, _charpoly_bits, reverse
from .gf2poly import Gf2Poly, _Record, _reverse_bits, format_poly
# factorize_mersenne is not called here; it stays bound because
# perfbench/layertrace.py wraps maxca.enumerator's names, this one too.
from .primitivity import enumerate_primitive, factorize_mersenne, is_primitive, primitive_count

__all__ = [
    "EXHAUSTIVE_CAP",
    "MaxLenEntry",
    "FilterStats",
    "enumerate_maxlen",
    "rule_vectors_for",
    "filter_stats",
]

# 2^n diagonals at O(n^2) each stays comfortable up to here; beyond it
# callers must opt in explicitly.
EXHAUSTIVE_CAP = 20


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
    return frozenset(p.bits for p in enumerate_primitive(n))


def _scan(n: int, targets: frozenset[int]) -> list[tuple[int, int, int]]:
    # All 2^n diagonals whose polynomial is in targets, as (polynomial
    # bits, reversed diagonal mask, diagonal mask), so that the tuples
    # sort in output order. Targets may be any set of polynomials of
    # degree n. From 8 cells on, 256 diagonals at a time, one per slot
    # of an int; below that, one at a time.
    from .lanes import _LANE_CELLS, _charpoly_lanes

    if n >= _LANE_CELLS:
        return _charpoly_lanes(n, targets)
    return [
        (bits, _reverse_bits(mask, n), mask)
        for mask in range(1 << n)
        if (bits := _charpoly_bits(mask, n)) in targets
    ]


def enumerate_maxlen(n: int, *, jobs: int = 1, force: bool = False) -> list[MaxLenEntry]:
    """Every n-cell maximum-length rule vector with its polynomial.

    One scan of the 2^n diagonals against the set of primitive
    polynomials of degree n, which is built once, before the scan. The
    whole search runs in this process: jobs (>= 1) is accepted so that
    existing callers keep working, and changes nothing. Output is
    sorted by (polynomial binary value, rule-vector text value).
    """
    _check_n(n, force)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    hits = _scan(n, _primitive_set(n))
    hits.sort()
    entries = []
    # A polynomial's vectors are adjacent once sorted; they share one Gf2Poly.
    for bits, group in groupby(hits, itemgetter(0)):
        p = Gf2Poly(bits)
        entries += [MaxLenEntry(n, RuleVector.from_mask(mask, n), p) for _, _, mask in group]
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
    return [RuleVector.from_mask(mask, n) for _, _, mask in sorted(hits)]


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
