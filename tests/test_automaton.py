"""Automaton stepping: hand traces, the explicit matrix oracle,
linearity, cycle measurement, and bitstream output."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import maxca.automaton
from maxca.automaton import (
    BRUTE_FORCE_CAP,
    CaState,
    _cycle_length_jump,
    _stream_chunks,
    cycle_length_from,
    is_max_length,
    next_state,
    pack_bits,
    stream_bits,
    unit_seed,
)
from maxca.charpoly import RuleVector
from maxca.gf2poly import _BLOCK_BITS
from maxca.primitivity import MAX_FACTOR_N
from references import jump_cases


def step_str(rules: str, state: str) -> str:
    return str(next_state(RuleVector(rules), CaState.from_string(state)))


def _matvec(mask: int, n: int, state_bits: int) -> int:
    # Explicit T*s over GF(2): T[i][j] = 1 iff cell i's next state
    # depends on cell j (tridiagonal, null boundary, diagonal = mask).
    out = 0
    for i in range(n):
        acc = 0
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                t_ij = (mask >> i) & 1 if j == i else 1
                acc ^= t_ij & (state_bits >> j)
        if acc & 1:
            out |= 1 << i
    return out


class TestCaState:
    def test_round_trip(self):
        s = CaState.from_string("00000001")
        assert s.bits == 1 << 7
        assert str(s) == "00000001"

    @given(st.text(alphabet="01", min_size=1, max_size=80))
    def test_string_round_trip_any_length(self, text):
        assert str(CaState.from_string(text)) == text

    def test_unit_seed(self):
        assert unit_seed(4) == CaState(bits=1, n=4)
        assert str(unit_seed(4)) == "1000"

    @pytest.mark.parametrize("bad", ["", "012", "x"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(ValueError):
            CaState.from_string(bad)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            CaState(bits=4, n=2)
        with pytest.raises(ValueError):
            CaState(bits=0, n=0)


class TestNextState:
    def test_hand_traced_three_cycle(self):
        assert step_str("10", "01") == "10"
        assert step_str("10", "10") == "11"
        assert step_str("10", "11") == "01"

    def test_zero_state_is_fixed(self):
        for rules in ("10", "0110", "11111"):
            n = len(rules)
            frozen = next_state(RuleVector(rules), CaState(bits=0, n=n))
            assert frozen.bits == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            next_state(RuleVector("10"), CaState.from_string("100"))

    def test_matrix_oracle_exhaustive(self):
        for n in range(1, 9):
            for mask in range(1 << n):
                rv = RuleVector.from_mask(mask, n)
                for bits in range(1 << n):
                    got = next_state(rv, CaState(bits=bits, n=n)).bits
                    assert got == _matvec(mask, n, bits), (n, mask, bits)

    def test_matrix_oracle_worked_example_random_states(self):
        rng = random.Random(20260809)
        rv = RuleVector("00000110")
        for _ in range(100):
            bits = rng.randrange(1, 1 << 8)
            got = next_state(rv, CaState(bits=bits, n=8)).bits
            assert got == _matvec(rv.mask, 8, bits)

    def test_linearity(self):
        rng = random.Random(1729)
        for _ in range(200):
            n = rng.randrange(2, 16)
            rv = RuleVector.from_mask(rng.randrange(1 << n), n)
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            fa = next_state(rv, CaState(bits=a, n=n)).bits
            fb = next_state(rv, CaState(bits=b, n=n)).bits
            fab = next_state(rv, CaState(bits=a ^ b, n=n)).bits
            assert fab == fa ^ fb


class TestCycleLength:
    def test_hand_traced(self):
        assert cycle_length_from(RuleVector("10"), CaState.from_string("01")) == 3

    def test_worked_example_period_255(self):
        rv = RuleVector("00000110")
        seed = CaState.from_string("00000001")
        assert cycle_length_from(rv, seed) == 255

    def test_non_primitive_short_cycle(self):
        # charpoly("00") = x^2 + 1 is not primitive; the period is 2 < 3.
        assert cycle_length_from(RuleVector("00"), CaState.from_string("01")) == 2

    def test_transient_seed_returns_none(self):
        # rv "11" has a singular T; the unit seed falls into the zero
        # fixed point and never recurs.
        assert cycle_length_from(RuleVector("11"), unit_seed(2)) is None

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            cycle_length_from(RuleVector("10"), CaState(bits=0, n=2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cycle_length_from(RuleVector("10"), unit_seed(3))

    def test_cap(self):
        rv = RuleVector.from_mask(0, BRUTE_FORCE_CAP + 1)
        with pytest.raises(ValueError):
            cycle_length_from(rv, unit_seed(BRUTE_FORCE_CAP + 1))

    def test_period_divides_full_cycle(self):
        # After 2^n - 1 steps a maximum-length automaton is back home.
        rv = RuleVector("1101")
        s = unit_seed(4)
        for _ in range(15):
            s = next_state(rv, s)
        assert s == unit_seed(4)


class TestCycleLengthJump:
    """Jump-ahead against raw simulation, which stays the oracle."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small_n(self, n):
        # Every rule vector with every nonzero seed, singular T included.
        nones = 0
        for mask, bits in jump_cases(n):
            rv, seed = RuleVector.from_mask(mask, n), CaState(bits=bits, n=n)
            t = cycle_length_from(rv, seed)
            assert _cycle_length_jump(rv, seed) == t
            nones += t is None
        assert nones > 0

    @settings(deadline=None)
    @given(st.integers(1, 14).flatmap(lambda n: st.tuples(
        st.integers(0, (1 << n) - 1), st.integers(1, (1 << n) - 1), st.just(n))))
    def test_matches_simulation(self, case):
        mask, bits, n = case
        rv, seed = RuleVector.from_mask(mask, n), CaState(bits=bits, n=n)
        assert _cycle_length_jump(rv, seed) == cycle_length_from(rv, seed)

    @pytest.mark.parametrize("rv,seed", [
        (RuleVector("10"), CaState(bits=0, n=2)),
        (RuleVector("10"), unit_seed(3)),
        (RuleVector.from_mask(0, BRUTE_FORCE_CAP + 1), unit_seed(BRUTE_FORCE_CAP + 1)),
    ])
    def test_same_errors_as_simulation(self, rv, seed):
        with pytest.raises(ValueError) as want:
            cycle_length_from(rv, seed)
        with pytest.raises(ValueError) as got:
            _cycle_length_jump(rv, seed)
        assert str(got.value) == str(want.value)

    def test_force_goes_past_the_cap_up_to_the_factoring_limit(self):
        rv = RuleVector("11101010110010101110001101001101")  # primitive charpoly
        assert _cycle_length_jump(rv, unit_seed(32), force=True) == (1 << 32) - 1

    def test_beyond_factoring_limit_is_an_error(self):
        n = MAX_FACTOR_N + 1
        with pytest.raises(ValueError, match="factors 2\\^n - 1"):
            _cycle_length_jump(RuleVector.from_mask(0, n), unit_seed(n), force=True)

    def test_wrong_charpoly_is_caught(self, monkeypatch):
        # x^2 + 1 is not charpoly("10") = x^2 + x + 1; the check on the
        # stepped seed must notice rather than report a period.
        monkeypatch.setattr(maxca.automaton, "_charpoly_bits", lambda mask, n: 0b101)
        with pytest.raises(RuntimeError):
            _cycle_length_jump(RuleVector("10"), unit_seed(2))


class TestIsMaxLength:
    def test_table_rows(self):
        assert is_max_length(RuleVector("10"))
        assert is_max_length(RuleVector("1101"))

    def test_counterexample(self):
        assert not is_max_length(RuleVector("00"))

    def test_second_seed_agrees(self):
        # One seed suffices in theory; spot-check another anyway.
        rng = random.Random(42)
        for rules in ("10", "1101", "00000110"):
            rv = RuleVector(rules)
            seed = CaState(bits=rng.randrange(1, 1 << rv.n), n=rv.n)
            assert cycle_length_from(rv, seed) == (1 << rv.n) - 1


class TestStreamBits:
    def test_hand_traced_stream(self):
        rv = RuleVector("10")
        seed = CaState.from_string("01")
        assert list(stream_bits(rv, seed, 6, tap=0)) == [1, 1, 0, 1, 1, 0]

    def test_empty_stream(self):
        assert list(stream_bits(RuleVector("10"), unit_seed(2), 0)) == []

    def test_balance_over_full_period(self):
        # m-sequence balance: 2^(n-1) ones in one period at any tap.
        rv = RuleVector("00000110")
        for tap in (0, 3, 7):
            bits = list(stream_bits(rv, unit_seed(8), 255, tap=tap))
            assert sum(bits) == 128

    def test_validation_is_eager(self):
        with pytest.raises(ValueError):
            stream_bits(RuleVector("10"), CaState(bits=0, n=2), 5)
        with pytest.raises(ValueError):
            stream_bits(RuleVector("10"), unit_seed(2), 5, tap=2)
        with pytest.raises(ValueError):
            stream_bits(RuleVector("10"), unit_seed(2), -1)
        with pytest.raises(ValueError):
            stream_bits(RuleVector("10"), unit_seed(3), 5)


def _chunked_bytes(rv, seed, count, tap):
    # Concatenate the chunks into one int, then pack it like pack_bits.
    value = pos = 0
    for chunk, k in _stream_chunks(rv, seed, count, tap):
        assert 0 < k <= _BLOCK_BITS
        assert chunk >> k == 0
        value |= chunk << pos
        pos += k
    assert pos == count
    return value.to_bytes((count + 7) // 8, "little")


@st.composite
def _stream_cases(draw):
    n = draw(st.integers(1, 40))
    mask = draw(st.integers(0, (1 << n) - 1))  # singular T included
    seed = draw(st.integers(1, (1 << n) - 1))
    tap = draw(st.integers(0, n - 1))
    count = draw(st.integers(0, 100_000))
    return RuleVector.from_mask(mask, n), CaState(bits=seed, n=n), count, tap


class TestStreamChunks:
    """The block recurrence against the per-step reference."""

    @settings(deadline=None)
    @given(_stream_cases())
    def test_matches_per_step_stream(self, case):
        rv, seed, count, tap = case
        assert _chunked_bytes(rv, seed, count, tap) == pack_bits(stream_bits(rv, seed, count, tap))

    @pytest.mark.parametrize("rules", ["1", "0", "10", "110", "00000110", "1" * 40])
    def test_short_counts(self, rules):
        rv = RuleVector(rules)
        n = rv.n
        seed = CaState(bits=(1 << n) - 1, n=n)
        for count in sorted({0, max(n - 1, 0), n, n + 1, 2 * n + 1, 8 * n - 1}):
            for tap in {0, n - 1}:
                assert _chunked_bytes(rv, seed, count, tap) == pack_bits(stream_bits(rv, seed, count, tap))

    @pytest.mark.parametrize("n", [40, 300])
    def test_counts_around_a_phase_edge(self, n):
        # The first n chunks are stepped, each next n come from one
        # doubling level: end one bit either side of the first four edges.
        rng = random.Random(n)
        rv = RuleVector.from_mask(rng.getrandbits(n), n)
        seed = CaState(bits=rng.randrange(1, 1 << n), n=n)
        tap = rng.randrange(n)
        chunks = itertools.islice(_stream_chunks(rv, seed, 1 << 40, tap), 4 * n)
        ends = list(itertools.accumulate(k for _, k in chunks))
        for edge in ends[n - 1::n]:
            for count in (edge - 1, edge + 1):
                assert _chunked_bytes(rv, seed, count, tap) == pack_bits(stream_bits(rv, seed, count, tap))

    @pytest.mark.parametrize("rules, blocks", [
        ("1", 1), ("1", 3), ("0", 2), ("10", 2), ("10", 5), ("011", 3),
    ])
    def test_counts_around_a_block_edge(self, rules, blocks):
        # Full 2^15-bit blocks start at bit n * 2^15, so for blocks >= n,
        # count = blocks * 2^15 +- 1 ends one bit either side of an edge;
        # blocks > 2n reaches the second window of full blocks.
        rv = RuleVector(rules)
        rng = random.Random(rules)
        seed = CaState(bits=rng.randrange(1, 1 << rv.n), n=rv.n)
        tap = rv.n - 1
        for count in (blocks * _BLOCK_BITS - 1, blocks * _BLOCK_BITS + 1):
            assert _chunked_bytes(rv, seed, count, tap) == pack_bits(stream_bits(rv, seed, count, tap))

    def test_validation_is_eager(self):
        for args in ((RuleVector("10"), CaState(bits=0, n=2), 5),
                     (RuleVector("10"), unit_seed(2), 5, 2),
                     (RuleVector("10"), unit_seed(2), -1),
                     (RuleVector("10"), unit_seed(3), 5)):
            with pytest.raises(ValueError) as want:
                stream_bits(*args)
            with pytest.raises(ValueError) as got:
                _stream_chunks(*args)
            assert str(got.value) == str(want.value)


class TestPackBits:
    def test_lsb_first(self):
        assert pack_bits([1, 0, 1, 1, 0, 1, 1, 0]) == b"\x6d"

    def test_partial_byte_zero_padded(self):
        assert pack_bits([1, 1, 1]) == b"\x07"

    def test_empty(self):
        assert pack_bits([]) == b""

    def test_two_bytes(self):
        assert pack_bits([1] * 9) == b"\xff\x01"
