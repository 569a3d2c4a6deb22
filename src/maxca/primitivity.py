"""Irreducibility and primitivity of polynomials over GF(2).

A degree-n polynomial is primitive when the order of x modulo it is
the full 2^n - 1, which also makes it irreducible. The order test needs
the prime factorization of 2^n - 1, which trial division delivers
instantly at the supported sizes (n <= 32). Nothing is looked up: the
primitive polynomials of any n are generated on demand, by decimating
the m-sequence of the least one (made by the block kernel of gf2poly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .gf2poly import Gf2Poly, _pack_blocks, _recurrence_blocks, gcd, pow_x_mod

__all__ = [
    "MAX_FACTOR_N",
    "MersenneFactorization",
    "factorize_mersenne",
    "is_irreducible",
    "is_primitive",
    "enumerate_primitive",
    "primitive_count",
]

# Trial division on 2^n - 1 is instantaneous up to here; larger n would
# need real factoring machinery and is out of scope.
MAX_FACTOR_N = 32

_ONE = Gf2Poly(1)
_X = Gf2Poly(2)


def _factorize(value: int) -> tuple[tuple[int, int], ...]:
    # Trial division up to sqrt; returns ascending (prime, multiplicity).
    factors = []
    rest = value
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


@dataclass(frozen=True)
class MersenneFactorization:
    """Prime factorization of 2^n - 1, the period of an n-cell maximum
    length automaton."""

    n: int
    value: int
    prime_factors: tuple[tuple[int, int], ...]

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_factors)

    def euler_phi(self) -> int:
        """Euler's totient of 2^n - 1, from the factorization."""
        phi = 1
        for p, e in self.prime_factors:
            phi *= (p - 1) * p ** (e - 1)
        return phi


@lru_cache(maxsize=None)
def factorize_mersenne(n: int) -> MersenneFactorization:
    """Complete prime factorization of 2^n - 1 by trial division."""
    if not 1 <= n <= MAX_FACTOR_N:
        raise ValueError(f"n must be in 1..{MAX_FACTOR_N}, got {n}")
    value = (1 << n) - 1
    return MersenneFactorization(n=n, value=value, prime_factors=_factorize(value))


def is_irreducible(p: Gf2Poly) -> bool:
    """True iff p has no nontrivial factor over GF(2).

    Standard criterion: x^(2^n) = x (mod p), and for every prime q
    dividing n, gcd(x^(2^(n/q)) - x, p) = 1.
    """
    n = p.degree
    if n is None or n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if n == 1:
        return True
    if pow_x_mod(1 << n, p) != _X % p:
        return False
    for q, _ in _factorize(n):
        probe = pow_x_mod(1 << (n // q), p) + (_X % p)
        if gcd(probe, p).degree != 0:
            return False
    return True


def is_primitive(p: Gf2Poly, f: MersenneFactorization | None = None) -> bool:
    """True iff p is irreducible and x has order 2^n - 1 modulo p.

    Checks x^(2^n - 1) = 1 and x^((2^n - 1)/q) != 1 for every distinct
    prime q of the factorization, and no irreducibility test: the powers
    of x are then 2^n - 1 distinct units, every nonzero residue mod p,
    so GF(2)[x]/p is a field and p is irreducible.
    """
    n = p.degree
    if n is None or n < 1:
        raise ValueError("primitivity needs degree >= 1")
    if f is None:
        f = factorize_mersenne(n)
    elif f.n != n:
        raise ValueError(f"factorization is for n={f.n}, polynomial has degree {n}")
    if pow_x_mod(f.value, p) != _ONE:
        return False
    for q in f.distinct_primes():
        if pow_x_mod(f.value // q, p) == _ONE:
            return False
    return True


def order_of_x(p: Gf2Poly, f: MersenneFactorization | None = None) -> int:
    """Multiplicative order of x modulo an irreducible p.

    Starts from 2^n - 1 and strips every prime that can be stripped;
    useful as a diagnostic for irreducible but non-primitive inputs.
    """
    n = p.degree
    if n is None or n < 1:
        raise ValueError("order needs degree >= 1")
    if not is_irreducible(p):
        raise ValueError("order of x is only defined here for irreducible polynomials")
    if f is None:
        f = factorize_mersenne(n)
    return _strip_to_order(f.value, f.prime_factors, lambda t: pow_x_mod(t, p) == _ONE)


def _strip_to_order(multiple: int, prime_factors, holds) -> int:
    # The order of a group element from a multiple of it, given as its
    # primes (q, e), and a test holds(t) that is true exactly on the
    # multiples of the order: divide out each q while the quotient holds.
    for q, e in prime_factors:
        for _ in range(e):
            if not holds(multiple // q):
                break
            multiple //= q
    return multiple


def primitive_count(n: int) -> int:
    """Number of degree-n primitive polynomials: phi(2^n - 1) / n."""
    return factorize_mersenne(n).euler_phi() // n


def _m_sequence(p: int, n: int) -> bytes:
    # One period (2^n - 1 bits) of the sequence that obeys p, from the
    # impulse seed, packed LSB-first.
    period = (1 << n) - 1
    out = bytearray()
    for piece in _pack_blocks(_recurrence_blocks(p, [1] + [0] * (n - 1), 1)):
        out += piece
        if 8 * len(out) >= period:
            break
    del out[(period + 7) // 8 :]
    out[-1] &= 0xFF >> (-period % 8)
    return bytes(out)


def _berlekamp_massey(bits) -> int:
    """Characteristic polynomial of the shortest linear recurrence that
    generates the 0/1 sequence `bits`, as coefficient bits.

    A sequence of linear complexity L is pinned down by its first 2L
    terms. The all-zero sequence gives 1 (degree 0).
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
    return int(format(conn, f"0{length + 1}b")[::-1], 2)


def _coset_leaders(n: int):
    # Smallest member of each cyclotomic coset {k * 2^j mod 2^n - 1} of
    # size n: multiplying by 2 rotates k's n-bit pattern, so these are
    # the binary Lyndon words of length n (Duval's generator, O(n)
    # memory), in ascending order.
    word = [0]
    while word:
        if len(word) == n:
            yield int("".join(map(str, word)), 2)
        m = len(word)
        while len(word) < n:
            word.append(word[len(word) - m])
        while word and word[-1] == 1:
            word.pop()
        if word:
            word[-1] = 1


def enumerate_primitive(n: int) -> list[Gf2Poly]:
    """All primitive polynomials of degree n, ascending by binary value.

    Generated by decimation, not by filtering candidates. The least
    primitive p0 takes a few order tests; its m-sequence s then holds
    every other primitive polynomial: for each k coprime to 2^n - 1,
    the decimation s[k*i mod (2^n - 1)] is an m-sequence whose minimal
    polynomial is primitive, Berlekamp-Massey recovers it from 2n
    terms, and each cyclotomic coset of k gives a distinct polynomial.
    Working memory is one bit-packed period, (2^n - 1)/8 bytes, next
    to the result list.
    """
    if not 2 <= n <= MAX_FACTOR_N:
        raise ValueError(f"n must be in 2..{MAX_FACTOR_N}, got {n}")
    f = factorize_mersenne(n)
    period = f.value
    p0 = next(
        bits
        for bits in range((1 << n) | 1, 1 << (n + 1), 2)
        if bits.bit_count() % 2 == 1 and is_primitive(Gf2Poly(bits), f)
    )
    seq = _m_sequence(p0, n)
    found = []
    for k in _coset_leaders(n):
        if math.gcd(k, period) != 1:
            continue
        decimated = []
        idx = 0
        for _ in range(2 * n):
            decimated.append((seq[idx >> 3] >> (idx & 7)) & 1)
            idx += k
            if idx >= period:
                idx -= period
        found.append(_berlekamp_massey(decimated))
    found.sort()
    return [Gf2Poly(bits) for bits in found]
