"""The library's answers checked against each other: the bitstream
against the characteristic polynomial and the measured cycle against
the order of x, on random inputs; the exhaustive search against the
count of primitive polynomials; and the factoring against an
independent oracle. Ranges come from the library's ceilings."""

import pytest
from hypothesis import given, settings, strategies as st

from maxca.automaton import CaState, _cycle_length_jump, _stream_chunks
from maxca.charpoly import RuleVector, characteristic_polynomial, reverse
from maxca.enumerator import enumerate_maxlen
from maxca.gf2poly import _BLOCK_BITS, MAX_DEGREE, _mod
from maxca.primitivity import (
    MAX_FACTOR_N,
    factorize_mersenne,
    is_irreducible,
    order_of_x,
    primitive_count,
)
from test_primitivity import _berlekamp_massey


def _window(rv, seed, tap, start, count):
    # Bits start..start+count-1 of the stream, and the positions where
    # its chunks end.
    bits, ends, pos = [], set(), 0
    for value, nbits in _stream_chunks(rv, seed, start + count, tap):
        lo, hi = max(start, pos), min(start + count, pos + nbits)
        bits += [(value >> (i - pos)) & 1 for i in range(lo, hi)]
        pos += nbits
        ends.add(pos)
    return bits, ends


@st.composite
def _stream_cases(draw):
    n = draw(st.integers(2, MAX_DEGREE))
    mask = draw(st.integers(0, (1 << n) - 1))  # singular T included
    seed = draw(st.integers(1, (1 << n) - 1))
    tap = draw(st.integers(0, n - 1))
    return RuleVector.from_mask(mask, n), CaState(bits=seed, n=n), tap


def _check_window(rv, seed, tap, start):
    # The stream obeys the charpoly p from any start, so the shortest
    # recurrence of 2n consecutive bits divides p. When p is irreducible,
    # no nonzero stream obeys a proper factor, so the two are equal.
    n = rv.n
    p = characteristic_polynomial(rv)
    bits, ends = _window(rv, seed, tap, start, 2 * n)
    found = _berlekamp_massey(bits)
    assert _mod(p.bits, found) == 0
    if is_irreducible(p):
        assert found == p.bits
    return ends


class TestStreamObeysCharpoly:
    @settings(deadline=None, max_examples=40)
    @given(_stream_cases(), st.integers(0, 1000))
    def test_window_near_a_million(self, case, offset):
        rv, seed, tap = case
        _check_window(rv, seed, tap, 10**6 + offset)

    @settings(deadline=None, max_examples=20)
    @given(_stream_cases())
    def test_window_across_a_block_boundary(self, case):
        # The first n blocks of _BLOCK_BITS start at bit n * _BLOCK_BITS;
        # the block after them is the first made once the window of 2n
        # blocks slides. Straddle the edge between the two.
        rv, seed, tap = case
        edge = 2 * rv.n * _BLOCK_BITS
        assert edge in _check_window(rv, seed, tap, edge - rv.n)


@st.composite
def _irreducible_cases(draw):
    # The first rule vector at or after a random one whose charpoly is
    # irreducible; about one in n are, so the walk is short. n >= 9
    # keeps p away from x, which has no order.
    n = draw(st.integers(9, MAX_FACTOR_N))
    mask = draw(st.integers(0, (1 << n) - 1))
    while not is_irreducible(characteristic_polynomial(RuleVector.from_mask(mask, n))):
        mask = (mask + 1) % (1 << n)
    seed = draw(st.integers(1, (1 << n) - 1))
    return RuleVector.from_mask(mask, n), CaState(bits=seed, n=n)


class TestCycleIsOrderOfX:
    @settings(deadline=None, max_examples=40)
    @given(_irreducible_cases())
    def test_every_nonzero_seed_cycles_with_the_order_of_x(self, case):
        # GF(2)[x]/p is a field, so T^t s = s for a nonzero s exactly
        # when x^t = 1 mod p.
        rv, seed = case
        p = characteristic_polynomial(rv)
        assert _cycle_length_jump(rv, seed, force=True) == order_of_x(p)


class TestEnumMatchesCounts:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_two_mirror_images_per_primitive_polynomial(self, n):
        # Every primitive p is the charpoly of exactly two rule vectors,
        # mirror images of each other and never the same vector.
        entries = enumerate_maxlen(n)
        assert len(entries) == 2 * primitive_count(n)
        assert not any(e.is_palindrome() for e in entries)
        vectors = {e.rule_vector for e in entries}
        assert {reverse(rv) for rv in vectors} == vectors


class TestFactoringMatchesAnOracle:
    def test_every_n_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(1, MAX_FACTOR_N + 1):
            assert dict(factorize_mersenne(n).prime_factors) == sympy.factorint(2**n - 1), n

    @pytest.mark.parametrize(
        "n, factors",
        [
            (29, ((233, 1), (1103, 1), (2089, 1))),
            (30, ((3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1))),
            (31, ((2**31 - 1, 1),)),
            (32, ((3, 1), (5, 1), (17, 1), (257, 1), (65537, 1))),
        ],
    )
    def test_pinned_factorizations(self, n, factors):
        assert factorize_mersenne(n).prime_factors == factors
