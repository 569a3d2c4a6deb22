"""Primitivity machinery, cross-checked by brute force: trial-division
primality, divisor-scan irreducibility, and explicit residue orbits."""

import hashlib
import importlib.util
import math
import os

import pytest

from maxca.gf2poly import Gf2Poly, format_poly, mod_reduce, mul, parse_poly, pow_x_mod
from maxca.primitivity import (
    MAX_FACTOR_N,
    _period,
    enumerate_primitive,
    factorize_mersenne,
    is_irreducible,
    is_primitive,
    order_of_x,
    primitive_count,
)
from maxca import lanes
from maxca.lanes import (
    _decimations,
    _m_sequence,
    _massey_lanes,
    _pair_leaders,
    _primitive_bits,
)
from references import berlekamp_massey, filter_primitive


def P(s: str) -> Gf2Poly:
    return parse_poly(s)


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    for d in range(2, math.isqrt(k) + 1):
        if k % d == 0:
            return False
    return True


def _lfsr(p: int, seed: list[int], count: int) -> list[int]:
    """count terms of s[i + n] = XOR of s[i + j] over the terms x^j,
    j < n, of the degree-n polynomial p, one step at a time."""
    n = p.bit_length() - 1
    s = list(seed)
    while len(s) < count:
        i = len(s) - n
        s.append(sum(s[i + j] for j in range(n) if (p >> j) & 1) % 2)
    return s[:count]


def _trace(t: int, p: int) -> int:
    """Tr(x^t) modulo the irreducible p of degree n: the sum of the n
    conjugates x^(t * 2^i), which is the constant 0 or 1."""
    total = 0
    for i in range(p.bit_length() - 1):
        total ^= pow_x_mod(t << i, Gf2Poly(p)).bits
    assert total in (0, 1)
    return total


def _divisor_scan_irreducible(p: Gf2Poly) -> bool:
    """Trial division by every polynomial of degree 1..n//2."""
    n = p.degree
    for d in range(1, n // 2 + 1):
        for bits in range(1 << d, 1 << (d + 1)):
            if mod_reduce(p, Gf2Poly(bits)).is_zero():
                return False
    return True


class TestFactorizeMersenne:
    def test_n4(self):
        f = factorize_mersenne(4)
        assert f.value == 15
        assert f.prime_factors == ((3, 1), (5, 1))

    def test_n11(self):
        assert factorize_mersenne(11).prime_factors == ((23, 1), (89, 1))

    def test_n12(self):
        assert factorize_mersenne(12).prime_factors == ((3, 2), (5, 1), (7, 1), (13, 1))

    @pytest.mark.parametrize("n", range(1, MAX_FACTOR_N + 1))
    def test_reconstructs_value_with_prime_factors(self, n):
        f = factorize_mersenne(n)
        assert f.value == (1 << n) - 1
        product = 1
        for p, e in f.prime_factors:
            assert _is_prime(p)
            product *= p**e
        assert product == f.value
        assert list(f.distinct_primes()) == sorted(f.distinct_primes())

    @pytest.mark.parametrize("n", [0, -3, MAX_FACTOR_N + 1])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            factorize_mersenne(n)

    def test_euler_phi_matches_direct_count(self):
        for n in range(2, 13):
            f = factorize_mersenne(n)
            direct = sum(1 for k in range(1, f.value + 1) if math.gcd(k, f.value) == 1)
            assert f.euler_phi() == direct


class TestIsIrreducible:
    def test_square_is_reducible(self):
        assert not is_irreducible(P("101"))  # (x+1)^2

    def test_table_entry_is_irreducible(self):
        assert is_irreducible(P("111"))

    def test_order_five_modulus(self):
        p = P("11111")
        assert _divisor_scan_irreducible(p)
        assert is_irreducible(p)

    def test_degree_one(self):
        assert is_irreducible(P("10"))
        assert is_irreducible(P("11"))

    @pytest.mark.parametrize("bad", ["1", "0"])
    def test_constant_rejected(self, bad):
        with pytest.raises(ValueError):
            is_irreducible(P(bad))

    def test_divisor_scan_agreement_exhaustive(self):
        for n in range(2, 9):
            for bits in range(1 << n, 1 << (n + 1)):
                p = Gf2Poly(bits)
                assert is_irreducible(p) == _divisor_scan_irreducible(p), format_poly(p)


class TestIsPrimitive:
    def test_table_n2(self):
        assert is_primitive(P("111"), factorize_mersenne(2))

    def test_irreducible_but_short_order(self):
        # x has order 5 < 15 modulo x^4+x^3+x^2+x+1.
        assert not is_primitive(P("11111"), factorize_mersenne(4))

    def test_worked_example(self):
        assert is_primitive(P("100011101"), factorize_mersenne(8))

    def test_factorization_optional(self):
        assert is_primitive(P("100011101"))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_primitive(P("111"), factorize_mersenne(3))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(P("1"))

    def test_primitive_x_orbit_visits_everything(self):
        # For primitive p of degree n, x^k for k = 0..2^n-2 hits all
        # 2^n - 1 nonzero residues; brute force for n <= 6.
        for n in range(2, 7):
            for p in enumerate_primitive(n):
                seen = set()
                r = Gf2Poly(1)
                for _ in range((1 << n) - 1):
                    seen.add(r.bits)
                    r = mod_reduce(mul(r, Gf2Poly(2)), p)
                assert len(seen) == (1 << n) - 1
                assert 0 not in seen
                assert r == Gf2Poly(1)


class TestOrderOfX:
    def test_short_order(self):
        assert order_of_x(P("11111")) == 5

    def test_full_order(self):
        assert order_of_x(P("100011101")) == 255

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            order_of_x(P("101"))

    def test_x_has_no_order_modulo_x(self):
        # x is irreducible, but x = 0 mod x, and 0 has no multiplicative order.
        assert is_irreducible(P("10"))
        with pytest.raises(ValueError, match="no order"):
            order_of_x(P("10"))

    def test_order_divides_group_order_and_powers_check_out(self):
        for n in range(2, 9):
            for bits in range(1 << n, 1 << (n + 1)):
                p = Gf2Poly(bits)
                if not is_irreducible(p):
                    continue
                o = order_of_x(p)
                assert ((1 << n) - 1) % o == 0
                assert pow_x_mod(o, p) == Gf2Poly(1)
                assert is_primitive(p) == (o == (1 << n) - 1)

    def test_order_is_least_by_brute_force(self):
        for n in range(2, 9):
            for bits in range(1 << n, 1 << (n + 1)):
                p = Gf2Poly(bits)
                if is_irreducible(p):
                    least = next(t for t in range(1, 1 << n) if pow_x_mod(t, p) == Gf2Poly(1))
                    assert order_of_x(p) == least


class TestPeriod:
    """The one period search, on every polynomial with p(0) = 1 (x a
    unit), reducible ones included, where 2^n - 1 often fails and the
    multiple M of every possible order is needed."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_order_of_x_is_least_by_brute_force(self, n):
        f = factorize_mersenne(n)
        for bits in range((1 << n) | 1, 1 << (n + 1), 2):
            p = Gf2Poly(bits)
            least, r = 1, mod_reduce(P("10"), p)
            while r != Gf2Poly(1):  # x is a unit, so its powers return to 1
                r = mod_reduce(mul(r, P("10")), p)
                least += 1
            assert _period(f, lambda t: pow_x_mod(t, p) == Gf2Poly(1)) == least

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_none_when_never_true(self, n):
        assert _period(factorize_mersenne(n), lambda t: False) is None


class TestEnumeratePrimitive:
    def test_n2(self):
        assert [format_poly(p) for p in enumerate_primitive(2)] == ["111"]

    def test_n5_matches_table_block(self):
        assert [format_poly(p) for p in enumerate_primitive(5)] == [
            "100101", "101001", "101111", "110111", "111011", "111101",
        ]

    def test_n8_count(self):
        assert len(enumerate_primitive(8)) == 16

    def test_counts_match_phi_over_n(self):
        expected = [1, 2, 2, 6, 6, 18, 16, 48, 60, 176, 144]
        for n, want in zip(range(2, 13), expected):
            assert primitive_count(n) == want
            assert len(enumerate_primitive(n)) == want

    def test_sorted_ascending(self):
        for n in (5, 8):
            vals = [p.bits for p in enumerate_primitive(n)]
            assert vals == sorted(vals)

    def test_everything_listed_is_primitive_and_nothing_else(self):
        for n in range(2, 13):
            listed = {p.bits for p in enumerate_primitive(n)}
            for bits in range(1 << n, 1 << (n + 1)):
                assert is_primitive(Gf2Poly(bits)) == (bits in listed)

    def test_odd_weight_and_constant_term(self):
        for n in range(2, 13):
            for p in enumerate_primitive(n):
                assert p.bits & 1
                assert p.bits.bit_count() % 2 == 1

    @pytest.mark.parametrize("n", [1, 0, MAX_FACTOR_N + 1])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            enumerate_primitive(n)

    def test_n20_pinned(self):
        # The decimation at n = 20 runs the m-sequence past its doubling
        # phase; the list is pinned by its sha256 as primpoly-list prints it.
        text = "".join(format_poly(p) + "\n" for p in enumerate_primitive(20))
        assert text.count("\n") == 24000 == primitive_count(20)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "03a3da732a629b9df37bbdd2e46522e8a120a5a8cd91bec4d21c29ae87da39ff"
        )

    def test_n22_pinned(self):
        # The first pin above n = 20: 120,032 lanes, eight bit-sliced passes.
        text = "".join(format_poly(p) + "\n" for p in enumerate_primitive(22))
        assert text.count("\n") == 120032 == primitive_count(22)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "26f8d70b9cd578fdfab73ad1c03b5f94f312b0ed36fe117f25430c5aba5d4758"
        )

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_filter_oracle(self, n):
        assert [p.bits for p in enumerate_primitive(n)] == filter_primitive(n)


class TestDecimationParts:
    def test_berlekamp_massey_known_lfsr(self):
        # x^4 + x^3 + 1 and its reciprocal x^4 + x + 1, each from the
        # impulse seed: BM must return the recurrence, not its mirror.
        assert berlekamp_massey([1, 0, 0, 0, 1, 1, 1, 1]) == 0b11001
        assert berlekamp_massey([1, 0, 0, 0, 1, 0, 0, 1]) == 0b10011

    def test_berlekamp_massey_low_complexity(self):
        assert berlekamp_massey([0] * 8) == 0b1
        assert berlekamp_massey([1] * 8) == 0b11
        assert berlekamp_massey([1, 1, 0] * 3) == 0b111

    def test_berlekamp_massey_every_irreducible(self):
        # 2n terms of any nonzero sequence with an irreducible degree-n
        # characteristic polynomial determine that polynomial.
        for n in range(1, 9):
            for bits in range(1 << n, 1 << (n + 1)):
                if is_irreducible(Gf2Poly(bits)):
                    seq = _lfsr(bits, [0] * (n - 1) + [1], 2 * n)
                    assert berlekamp_massey(seq) == bits, (n, bits)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_m_sequence_is_in_its_trace_phase(self, n):
        # s[t] = Tr(alpha^t), the trace of x^t modulo p0, summed over its
        # n conjugates by pow_x_mod; then s[2t mod period] = s[t], and
        # the whole period obeys p0's recurrence.
        period = (1 << n) - 1
        p0 = _least_primitive(n)
        got = [digit - ord("0") for digit in _digits(p0, n)]
        assert got[:n] == [_trace(t, p0) for t in range(n)]
        assert got == _lfsr(p0, got[:n], period)
        assert all(got[2 * t % period] == got[t] for t in range(period))

    def test_m_sequence_matches_step_by_step(self):
        for n in range(2, 11):
            period = (1 << n) - 1
            for p in enumerate_primitive(n)[:3]:
                got = [digit - ord("0") for digit in _digits(p.bits, n)]
                assert len(got) == period
                assert got == _lfsr(p.bits, lanes._trace_head(p.bits, n), period)

    def test_m_sequence_past_the_doubling_phase(self):
        # At n = 20 the kernel reaches full 2^15-bit blocks, since
        # n * 2^15 < 2^20 - 1. Two copies of the period, read as one
        # big int, must obey p0's recurrence, so the period wraps.
        n, period = 20, (1 << 20) - 1
        p0 = 0b100000000000000001001  # x^20 + x^3 + 1, the least primitive
        assert is_primitive(Gf2Poly(p0))
        digits = _digits(p0, n)
        assert len(digits) == period
        seq = int(digits[::-1], 2)
        assert seq & ((1 << n) - 1) == sum(bit << j for j, bit in enumerate(lanes._trace_head(p0, n)))
        assert seq.bit_count() == 1 << (n - 1)
        twice = seq | seq << period
        nxt = 0
        for j in range(n):
            if (p0 >> j) & 1:
                nxt ^= twice >> j
        assert (nxt ^ (twice >> n)) & ((1 << (2 * period - n)) - 1) == 0

    @pytest.mark.parametrize("n", range(2, 15))
    def test_pair_leaders_and_their_complements_cover_the_coprime_cosets(self, n):
        # Brute force: every cyclotomic coset {k * 2^j mod period} of a k
        # coprime to the period holds exactly one leader or one leader's
        # complement period - k, and each leader is the least member of
        # its coset and its complement's. At n = 2 the one coset {1, 2}
        # holds both 1 and its complement 2.
        period = (1 << n) - 1
        leaders = _leaders(n)
        assert leaders == sorted(set(leaders))
        cosets = {
            frozenset(k * (1 << j) % period for j in range(n))
            for k in range(1, period)
            if math.gcd(k, period) == 1
        }
        hit = [next(c for c in cosets if k in c) for k in leaders]
        hit += [next(c for c in cosets if period - k in c) for k in leaders]
        if n == 2:
            assert leaders == [1] and hit == [frozenset({1, 2})] * 2
        else:
            assert sorted(hit, key=min) == sorted(cosets, key=min)
            assert len(leaders) == primitive_count(n) // 2
        for k, mine, other in zip(leaders, hit, hit[len(leaders):]):
            assert k == min(mine | other)


def _digits(p: int, n: int) -> bytearray:
    """One period of p's m-sequence in its trace phase, as ASCII digits."""
    return _m_sequence(p, n, bytearray((1 << n) - 1))


def _leaders(n: int) -> list[int]:
    """One coprime coset leader per reciprocal pair, as the listing runs."""
    return list(_pair_leaders(bytearray(1 << (n - 1)), n, factorize_mersenne(n).distinct_primes()))


def _decimated(digits: bytearray, k: int, n: int) -> list[int]:
    """The first 2n terms of s[k*i mod 2^n - 1], read digit by digit."""
    period = (1 << n) - 1
    return [digits[k * i % period] - ord("0") for i in range(2 * n)]


def _least_primitive(n: int) -> int:
    return next(bits for bits in range((1 << n) | 1, 1 << (n + 1), 2) if is_primitive(Gf2Poly(bits)))


class TestMasseyLanes:
    """The bit-sliced pass against the scalar Berlekamp-Massey, lane by
    lane: one lane per reciprocal pair of coprime cosets, on the rows the
    listing gathers and copies from the trace-phase m-sequence."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_every_coset_matches_the_scalar_oracle(self, n):
        period = (1 << n) - 1
        digits = _digits(_least_primitive(n), n)
        leaders = _leaders(n)
        words = _decimations(digits, period, leaders, 2 * n)
        terms = [_decimated(digits, k, n) for k in leaders]
        assert words == [sum(bits[i] << lane for lane, bits in enumerate(terms)) for i in range(2 * n)]
        assert _massey_lanes(words, n, len(leaders)) == [berlekamp_massey(bits) for bits in terms]

    @pytest.mark.parametrize(
        "lane",
        [
            _decimated(_digits(0b100011101, 8), 17, 8),  # 17 divides 255: complexity 4
            [0] * 16,  # complexity 0
            [0] * 15 + [1],  # complexity 16
        ],
        ids=["shared-factor", "zero", "impulse-last"],
    )
    def test_a_lane_of_other_complexity_raises(self, lane):
        n, period = 8, 255
        leaders = _leaders(n)
        words = _decimations(_digits(0b100011101, n), period, leaders, 2 * n)
        assert _massey_lanes(words, n, len(leaders))  # every coprime lane passes
        assert berlekamp_massey(lane).bit_length() - 1 != n
        words = [word & ~1 | bit for word, bit in zip(words, lane)]
        with pytest.raises(RuntimeError, match="linear complexity"):
            _massey_lanes(words, n, len(leaders))

    @pytest.mark.parametrize("per_pass", [1, 7, 29, 59])
    def test_passes_of_any_width_give_the_same_polynomials(self, monkeypatch, per_pass):
        # 30 lanes at n = 10: one lane per pass, a short last pass, a
        # last pass of one lane, and one pass wider than the lanes.
        n = 10
        p0 = _least_primitive(n)
        primes = factorize_mersenne(n).distinct_primes()
        whole = _primitive_bits(p0, n, primes)
        assert sorted(whole) == [p.bits for p in enumerate_primitive(n)]
        monkeypatch.setattr(lanes, "_LANES", per_pass)
        assert sorted(_primitive_bits(p0, n, primes)) == sorted(whole)


def _layertrace():
    """perfbench/layertrace.py, loaded from its file without touching
    sys.path or sys.modules."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("_layertrace_for_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lanes_binds_no_traced_name():
    # The trace swaps each name of WRAPS in its module for a wrapper and
    # puts the original back on exit. lanes is first imported lazily,
    # possibly inside a traced run; a traced name it bound then (say
    # `from .primitivity import is_primitive`) would keep the wrapper.
    traced = {attr for _, attr, _, _ in _layertrace().WRAPS}
    assert traced
    assert not traced & set(vars(lanes))
