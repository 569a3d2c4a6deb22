"""Exhaustive search for maximum-length rule vectors.

Scans every one of the 2^n main diagonals of the tridiagonal transition
matrix, computes the characteristic polynomial, and keeps the diagonals
whose polynomial is in the set of primitive polynomials of degree n.
That set is built once, by decimation (`enumerate_primitive`), so no
order test runs per diagonal. The scan still counts how the diagonals
fall through the cascade: even coefficient weight, zero constant term
(neither possible for a primitive polynomial), not in the set, hit.
"""

from __future__ import annotations

from .charpoly import RuleVector, _charpoly_bits, reverse
from .gf2poly import Gf2Poly, _Record, _reverse_bits, format_poly
# factorize_mersenne is not called here; it stays bound because
# perfbench/layertrace.py wraps maxca.enumerator's names, this one too.
from .primitivity import enumerate_primitive, factorize_mersenne, is_primitive

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


def _scan(n: int, targets: frozenset[int]) -> tuple[list[tuple[int, int]], tuple[int, int, int]]:
    # All 2^n diagonals whose polynomial is in targets, as (diagonal
    # mask, polynomial bits), and the cascade counts (even weight, zero
    # constant, not in targets) of the rest.
    even_weight = zero_constant = missed = 0
    hits = []
    for mask in range(1 << n):
        bits = _charpoly_bits(mask, n)
        if bits.bit_count() % 2 == 0:
            even_weight += 1
        elif bits & 1 == 0:
            zero_constant += 1
        elif bits not in targets:
            missed += 1
        else:
            hits.append((mask, bits))
    return hits, (even_weight, zero_constant, missed)


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
    hits, _ = _scan(n, _primitive_set(n))
    hits.sort(key=lambda t: (t[1], _reverse_bits(t[0], n)))
    return [
        MaxLenEntry(n, RuleVector.from_mask(mask, n), Gf2Poly(bits))
        for mask, bits in hits
    ]


def rule_vectors_for(p: Gf2Poly, *, force: bool = False) -> list[RuleVector]:
    """All rule vectors whose characteristic polynomial is the given
    primitive p; closed under mirror reversal.

    Raises if p is not primitive (caller contract).
    """
    if not is_primitive(p):
        raise ValueError(f"{format_poly(p)} is not primitive")
    n = p.degree
    _check_n(n, force)
    hits, _ = _scan(n, frozenset((p.bits,)))
    return sorted(
        (RuleVector.from_mask(mask, n) for mask, _ in hits),
        key=lambda rv: _reverse_bits(rv.mask, n),
    )


def filter_stats(n: int, *, force: bool = False) -> FilterStats:
    """Count how many diagonals each rejection step removed."""
    _check_n(n, force)
    hits, (even_weight, zero_constant, not_primitive) = _scan(n, _primitive_set(n))
    return FilterStats(n, 1 << n, even_weight, zero_constant, not_primitive, len(hits))
