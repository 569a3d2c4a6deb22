"""Irreducibility and primitivity of polynomials over GF(2).

A degree-n polynomial is primitive when the order of x modulo it is
the full 2^n - 1, which also makes it irreducible. The order test needs
the prime factorization of 2^n - 1, which trial division delivers
instantly up to n = 32. That limit is checked once, in
`factorize_mersenne`, so every order test, listing and cycle
measurement that needs the factors stops there with the same message.
The least t with x^t = 1 (or T^t s = s) is found in one place,
`_period`, for `order_of_x` and for the automaton's jump-ahead cycle
measurement. Nothing is looked up: the primitive polynomials of any n
up to LISTING_CAP are generated on demand. This module checks n and
finds the least primitive one by order tests; module `lanes`, which
only the listing imports, derives all the others from its m-sequence.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .gf2poly import ONE, X, Gf2Poly, _Record, gcd, pow_x_mod

__all__ = [
    "LISTING_CAP",
    "MAX_FACTOR_N",
    "MersenneFactorization",
    "factorize_mersenne",
    "is_irreducible",
    "is_primitive",
    "order_of_x",
    "enumerate_primitive",
    "primitive_count",
]

# Trial division on 2^n - 1 is instantaneous up to here; larger n would
# need real factoring machinery and is out of scope.
MAX_FACTOR_N = 32

# The listing holds one period as a digit per term, 2^n - 1 bytes, and
# every polynomial it finds, phi(2^n - 1)/n of them: at n = 24, 16 MiB
# and 276,480; at n = 32, 4 GiB and about 67 million (several GB more).
LISTING_CAP = 24


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


class MersenneFactorization(_Record):
    """Prime factorization of 2^n - 1, the period of an n-cell maximum
    length automaton."""

    __slots__ = ("n", "value", "prime_factors")

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
    """Complete prime factorization of 2^n - 1 by trial division.

    The one check of MAX_FACTOR_N: whatever needs the factors calls this
    first and gives its error.
    """
    if not 1 <= n <= MAX_FACTOR_N:
        raise ValueError(f"trial division factors 2^n - 1 only for n in 1..{MAX_FACTOR_N}, got n={n}")
    value = (1 << n) - 1
    return MersenneFactorization(n, value, _factorize(value))


def _degree(p: Gf2Poly) -> int:
    # The degree of p, which every test of this module needs >= 1.
    n = p.degree
    if n is None or n < 1:
        raise ValueError(f"polynomial must have degree >= 1: {p}")
    return n


def is_irreducible(p: Gf2Poly) -> bool:
    """True iff p has no nontrivial factor over GF(2).

    Standard criterion: x^(2^n) = x (mod p), and for every prime q
    dividing n, gcd(x^(2^(n/q)) - x, p) = 1. At degree 1 there is no
    such q, and x^2 = x modulo x and modulo x + 1.
    """
    n = _degree(p)
    if pow_x_mod(1 << n, p) != X % p:
        return False
    for q, _ in _factorize(n):
        probe = pow_x_mod(1 << (n // q), p) + (X % p)
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
    n = _degree(p)
    if f is None:
        f = factorize_mersenne(n)
    elif f.n != n:
        raise ValueError(f"factorization is for n={f.n}, polynomial has degree {n}")
    if pow_x_mod(f.value, p) != ONE:
        return False
    for q in f.distinct_primes():
        if pow_x_mod(f.value // q, p) == ONE:
            return False
    return True


def order_of_x(p: Gf2Poly, f: MersenneFactorization | None = None) -> int:
    """Multiplicative order of x modulo an irreducible p other than x.

    Starts from 2^n - 1 and strips every prime that can be stripped;
    useful as a diagnostic for irreducible but non-primitive inputs.
    Modulo p = x, x is 0, which has no order.
    """
    n = _degree(p)
    if not is_irreducible(p):
        raise ValueError("order of x is only defined here for irreducible polynomials")
    if p == X:
        raise ValueError("x has no order modulo x, where it is 0")
    if f is None:
        f = factorize_mersenne(n)
    return _order_of_x(p, f)


def _order_of_x(p: Gf2Poly, f: MersenneFactorization) -> int:
    # order_of_x without its checks, for a caller that has made them.
    return _period(f, lambda t: pow_x_mod(t, p) == ONE)


def _period(f: MersenneFactorization, holds) -> int | None:
    # The least t >= 1 with holds(t), for a test that is true exactly on
    # the multiples of that t (x^t = 1 mod a divisor of a degree-n
    # polynomial, T^t s = s for an n-cell automaton), or None if it is
    # never true. Every such period divides M = 2^ceil(log2 n) *
    # lcm_{k<=n}(2^k - 1) (Lidl & Niederreiter, Thm 3.8-3.9), so a false
    # holds(M) means none; 2^n - 1, the primitive case, is tried first.
    # Then each prime is divided out while the quotient still holds.
    factors = dict(f.prime_factors)
    t = f.value
    if not holds(t):
        for k in range(1, f.n):
            for q, e in factorize_mersenne(k).prime_factors:
                factors[q] = max(factors.get(q, 0), e)
        factors[2] = (f.n - 1).bit_length()
        t = math.prod(q**e for q, e in factors.items())
        if not holds(t):
            return None
    for q, e in factors.items():
        for _ in range(e):
            if not holds(t // q):
                break
            t //= q
    return t


def primitive_count(n: int) -> int:
    """Number of degree-n primitive polynomials: phi(2^n - 1) / n."""
    return factorize_mersenne(n).euler_phi() // n


def enumerate_primitive(n: int) -> list[Gf2Poly]:
    """All primitive polynomials of degree n, ascending by binary value.

    Generated by decimation, not by filtering candidates. The least
    primitive p0 takes a few order tests; its m-sequence s then holds
    every other primitive polynomial: for each k coprime to 2^n - 1,
    the decimation s[k*i mod (2^n - 1)] is an m-sequence whose minimal
    polynomial is primitive, Berlekamp-Massey recovers it from 2n
    terms, and each cyclotomic coset of k gives a distinct polynomial.
    The decimation by -k gives the reciprocal of k's polynomial, so one
    coset leader per pair {k, -k}, found by a sieve, runs as a bit lane
    of one branch-free Berlekamp-Massey pass (`lanes`, 8,192 lanes at a
    time), and each lane must end with linear complexity n, or
    RuntimeError. s is read in its trace phase, where s[2t] = s[t], so
    only the n odd terms of each decimation are gathered. Working
    memory is one buffer of 2^n - 1 bytes, first the sieve, then one
    period as a digit per term, next to the leaders and the result, so
    n stops at LISTING_CAP.
    """
    return [Gf2Poly(bits) for bits in sorted(_listing(n))]


def _listing(n: int) -> list[int]:
    # enumerate_primitive's checks and polynomials, as unsorted bits:
    # the enumerator's primitive set needs no records and no order.
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    f = factorize_mersenne(n)
    if n > LISTING_CAP:
        raise ValueError(
            f"listing the primitive polynomials of degree {n} exceeds the n<={LISTING_CAP} cap"
        )
    p0 = next(
        bits
        for bits in range((1 << n) | 1, 1 << (n + 1), 2)
        if bits.bit_count() % 2 == 1 and is_primitive(Gf2Poly(bits), f)
    )
    from .lanes import _primitive_bits  # compiled only where a listing runs

    return _primitive_bits(p0, n, f.distinct_primes())
