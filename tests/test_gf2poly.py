"""GF(2) polynomial arithmetic: frozen examples and algebraic laws."""

import random

import pytest
from hypothesis import given, strategies as st

from maxca.gf2poly import (
    _BLOCK_BITS,
    _first_bits,
    _mod,
    _mul,
    _parse_lsb,
    _pow_x_mod,
    _recurrence_blocks,
    _reverse_bits,
    MAX_DEGREE,
    DegreeOverflowError,
    Gf2Poly,
    add,
    format_poly,
    gcd,
    mod_reduce,
    mul,
    parse_poly,
    pow_x_mod,
    weight,
)


def P(s: str) -> Gf2Poly:
    return parse_poly(s)


# Bit vectors small enough that any product stays under MAX_DEGREE.
polys = st.builds(Gf2Poly, st.integers(min_value=0, max_value=(1 << 32) - 1))
nonzero_moduli = st.builds(Gf2Poly, st.integers(min_value=2, max_value=(1 << 16) - 1))


class TestAdd:
    def test_self_inverse(self):
        assert add(P("11"), P("11")) == Gf2Poly(0)

    def test_disjoint_supports(self):
        assert add(P("101"), P("10")) == P("111")

    def test_leading_term_cancellation(self):
        assert add(P("1011"), P("1000")) == P("11")

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert add(a, b) == add(b, a)

    @given(polys)
    def test_identity_and_involution(self, a):
        assert add(a, Gf2Poly(0)) == a
        assert add(a, a) == Gf2Poly(0)


class TestMul:
    def test_square_of_x_plus_1(self):
        # (x+1)^2 = x^2 + 1: cross terms vanish in characteristic 2.
        assert mul(P("11"), P("11")) == P("101")

    def test_identity(self):
        p = P("110111")
        assert mul(p, Gf2Poly(1)) == p

    def test_hand_expansion(self):
        # (x^2+x+1)(x+1) = x^3+1, frozen from expanding and cancelling mod 2.
        assert mul(P("111"), P("11")) == P("1001")

    def test_degree_adds(self):
        assert mul(P("1011"), P("101")).degree == 3 + 2

    def test_capacity_error(self):
        big = Gf2Poly(1 << 33)
        with pytest.raises(DegreeOverflowError):
            mul(big, big)

    def test_zero_annihilates(self):
        assert mul(Gf2Poly(0), Gf2Poly(1 << MAX_DEGREE)) == Gf2Poly(0)


class TestModReduce:
    def test_self_is_zero(self):
        m = P("111")
        assert mod_reduce(m, m) == Gf2Poly(0)

    def test_already_reduced(self):
        assert mod_reduce(P("10"), P("111")) == P("10")

    def test_single_subtraction_step(self):
        # x^3 mod (x^3+x+1) = x+1, one XOR of the shifted modulus.
        assert mod_reduce(P("1000"), P("1011")) == P("11")

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            mod_reduce(P("10"), Gf2Poly(0))

    @given(polys, polys, nonzero_moduli)
    def test_multiplicative_homomorphism(self, a, b, m):
        lhs = mod_reduce(mul(a, b), m)
        rhs = mod_reduce(mul(mod_reduce(a, m), mod_reduce(b, m)), m)
        assert lhs == rhs

    @given(polys, nonzero_moduli)
    def test_remainder_degree(self, a, m):
        r = mod_reduce(a, m)
        assert r.degree is None or r.degree < m.degree


class TestPowXMod:
    def test_exponent_zero(self):
        assert pow_x_mod(0, P("111")) == Gf2Poly(1)

    def test_order_three(self):
        # x^2 = x+1 mod x^2+x+1, so x^3 = x^2+x = 1.
        assert pow_x_mod(3, P("111")) == Gf2Poly(1)

    def test_order_five(self):
        # x^5 = 1 modulo the degree-4 cyclotomic-style modulus 11111.
        assert pow_x_mod(5, P("11111")) == Gf2Poly(1)
        assert pow_x_mod(1, P("11111")) != Gf2Poly(1)

    def test_constant_modulus_rejected(self):
        with pytest.raises(ZeroDivisionError):
            pow_x_mod(3, Gf2Poly(1))
        with pytest.raises(ZeroDivisionError):
            pow_x_mod(3, Gf2Poly(0))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            pow_x_mod(-1, P("111"))

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        nonzero_moduli,
    )
    def test_exponent_additivity(self, e1, e2, m):
        combined = pow_x_mod(e1 + e2, m)
        split = mod_reduce(mul(pow_x_mod(e1, m), pow_x_mod(e2, m)), m)
        assert combined == split


def _square_and_multiply(e: int, m: int) -> int:
    # The oracle: right-to-left square-and-multiply with the general
    # carry-less product, no squaring spread and no times-x step.
    result = 1
    base = _mod(2, m)
    while e:
        if e & 1:
            result = _mod(_mul(result, base), m)
        e >>= 1
        if e:
            base = _mod(_mul(base, base), m)
    return result


def _oracle_moduli():
    # m = x and m = x + 1, then two seeded moduli of each degree 1..70,
    # one with a zero and one with a nonzero constant term.
    rng = random.Random(15)
    moduli = [0b10, 0b11]
    for d in range(1, 71):
        for low in (0, 1):
            moduli.append(1 << d | rng.getrandbits(d) & ~1 | low)
    return moduli


class TestPowXModOracle:
    moduli = _oracle_moduli()

    def test_exponents_0_to_300(self):
        for m in self.moduli:
            for e in range(301):
                assert _pow_x_mod(e, m) == _square_and_multiply(e, m), (e, m)

    def test_seeded_random_exponents_below_2_70(self):
        rng = random.Random(70)
        for m in self.moduli:
            for _ in range(4):
                e = rng.getrandbits(rng.randint(1, 70))
                assert _pow_x_mod(e, m) == _square_and_multiply(e, m), (e, m)

    def test_powers_of_two(self):
        # x^(2^k) mod m for k = 0..deg m + 1 and 70: is_irreducible asks
        # for k = deg m and its divisors.
        for m in self.moduli:
            for k in (*range(m.bit_length() + 1), 70):
                assert _pow_x_mod(1 << k, m) == _square_and_multiply(1 << k, m), (k, m)


class TestTextFormat:
    def test_parse_table_entry(self):
        assert parse_poly("111") == Gf2Poly(0b111)

    def test_parse_worked_example(self):
        p = parse_poly("100011101")
        assert p.bits == (1 << 8) | (1 << 4) | (1 << 3) | (1 << 2) | 1
        assert p.degree == 8

    def test_format_zero(self):
        assert format_poly(Gf2Poly(0)) == "0"

    def test_parse_zero(self):
        assert parse_poly("0") == Gf2Poly(0)

    @pytest.mark.parametrize("bad", ["", "102", "abc", "011", "00"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad)

    def test_parse_rejects_overlong(self):
        with pytest.raises(DegreeOverflowError):
            parse_poly("1" + "0" * (MAX_DEGREE + 1))

    @given(polys)
    def test_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p


# (n, bits) with bits < 2^n: an n-cell bit vector.
bit_vectors = st.integers(min_value=1, max_value=80).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
)


class TestLsbText:
    @pytest.mark.parametrize("bad", ["", "012", "1 0", "1_0", "+1"])
    def test_rejects_with_one_line_naming_the_input(self, bad):
        with pytest.raises(ValueError) as err:
            _parse_lsb(bad, "widget")
        assert str(err.value).startswith("widget ")
        assert "\n" not in str(err.value)

    @given(bit_vectors)
    def test_reversal_is_an_involution_moving_bit_i_to_n_1_i(self, vec):
        n, bits = vec
        flipped = _reverse_bits(bits, n)
        assert flipped == sum(((bits >> i) & 1) << (n - 1 - i) for i in range(n))
        assert _reverse_bits(flipped, n) == bits


class TestWeight:
    def test_zero(self):
        assert weight(Gf2Poly(0)) == 0

    def test_three_terms(self):
        assert weight(P("111")) == 3

    def test_worked_example(self):
        assert weight(P("100011101")) == 5


class TestValueSemantics:
    def test_degree_of_zero_is_none(self):
        assert Gf2Poly(0).degree is None

    def test_equality_is_canonical(self):
        assert P("101") == Gf2Poly(5)
        assert P("101") != P("11")
        assert hash(P("101")) == hash(Gf2Poly(5))

    def test_immutable(self):
        p = P("101")
        with pytest.raises(AttributeError):
            p.bits = 7

    def test_operator_sugar(self):
        assert P("111") * P("11") == P("1001")
        assert P("111") + P("11") == P("100")
        assert P("1000") % P("1011") == P("11")

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Gf2Poly(-1)


class TestGcd:
    def test_shared_factor(self):
        # (x+1)^2 and (x+1)(x^2+x+1) share exactly x+1.
        assert gcd(P("101"), mul(P("11"), P("111"))) == P("11")

    def test_coprime(self):
        assert gcd(P("111"), P("1011")) == Gf2Poly(1)

    def test_zero_cases(self):
        assert gcd(Gf2Poly(0), P("101")) == P("101")
        assert gcd(Gf2Poly(0), Gf2Poly(0)) == Gf2Poly(0)


class TestRecurrenceBlocks:
    """The block kernel against the recurrence itself, read off one big int."""

    @pytest.mark.parametrize("p, start", [
        (0b1011, [0, 1, 1]),  # x^3 + x + 1
        (0b11001, [1, 0, 0, 0]),  # x^4 + x^3 + 1 from the impulse
        (0b110, [1, 1]),  # x^2 + x: singular
    ])
    def test_obeys_p_past_the_window_phase(self, p, start):
        # The head is the n bits of `start`, one-bit blocks. Full blocks
        # start at bit n * _BLOCK_BITS and the window first slides at
        # 2n * _BLOCK_BITS; read a few past that.
        n = p.bit_length() - 1
        seq = length = 0
        sizes = []
        for block, k in _recurrence_blocks(p, iter(start)):
            assert block >> k == 0
            seq |= block << length
            length += k
            sizes.append(k)
            if length > (2 * n + 3) * _BLOCK_BITS:
                break
        assert sizes[:n] == [1] * n
        assert sizes[-1] == _BLOCK_BITS
        assert sizes == sorted(sizes)
        assert seq & ((1 << n) - 1) == sum(b << i for i, b in enumerate(start))
        nxt = 0
        for j in range(n):
            if (p >> j) & 1:
                nxt ^= seq >> j
        assert (nxt ^ (seq >> n)) & ((1 << (length - n)) - 1) == 0


class TestFirstBits:
    """The one cut of a block run to a bit count."""

    # Three blocks of 8, 8 and 16 bits: 0xA5, 0x3C, 0xBEEF.
    RUN = [(0xA5, 8), (0x3C, 8), (0xBEEF, 16)]

    @pytest.mark.parametrize("count, want", [
        (0, []),
        (3, [(0b101, 3)]),  # inside the first block
        (16, [(0xA5, 8), (0x3C, 8)]),  # exactly at a block boundary
        (17, [(0xA5, 8), (0x3C, 8), (1, 1)]),  # one bit past it
        (32, [(0xA5, 8), (0x3C, 8), (0xBEEF, 16)]),  # the whole run
        (40, [(0xA5, 8), (0x3C, 8), (0xBEEF, 16)]),  # past its end
    ])
    def test_cuts(self, count, want):
        assert list(_first_bits(iter(self.RUN), count)) == want

    def test_stops_pulling_at_the_count(self):
        # An endless run is read no further than the block the count ends in.
        pulled = []

        def endless():
            while True:
                pulled.append(1)
                yield 0xFF, 8

        assert list(_first_bits(endless(), 16)) == [(0xFF, 8), (0xFF, 8)]
        assert len(pulled) == 2
