"""Rule vectors and characteristic polynomials, checked against
independent oracles: cofactor expansion of det(xI + T) over GF(2)[x],
Gaussian elimination for det(T) and det(I + T) over GF(2), and a
plain per-cell recurrence."""

import pytest
from hypothesis import given, strategies as st

from maxca.charpoly import RuleVector, characteristic_polynomial, reverse
from maxca.gf2poly import MAX_DEGREE, Gf2Poly, parse_poly


def charpoly_str(rules: str) -> str:
    return str(characteristic_polynomial(RuleVector(rules)))


# ---------------------------------------------------------------------------
# Oracles. Polynomial entries are plain ints (bit i = coeff of x^i) with
# their own tiny arithmetic, independent of the library's kernels.

def _poly_mul(a: int, b: int) -> int:
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def _cofactor_det(m: list[list[int]]) -> int:
    """det over GF(2)[x] by first-row cofactor expansion (signs vanish)."""
    size = len(m)
    if size == 1:
        return m[0][0]
    det = 0
    for j, entry in enumerate(m[0]):
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        det ^= _poly_mul(entry, _cofactor_det(minor))
    return det


def _char_matrix(rules: str) -> list[list[int]]:
    """xI + T with int-poly entries: x = 0b10, 1 = 0b1."""
    n = len(rules)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 0b10 | int(rules[i])
        if i > 0:
            m[i][i - 1] = 1
        if i + 1 < n:
            m[i][i + 1] = 1
    return m


def _gf2_det(rows: list[int], n: int) -> int:
    """det over GF(2) of a bit-matrix (row ints) by elimination."""
    rows = rows[:]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if (rows[r] >> col) & 1:
                rows[r] ^= rows[col]
    return 1


def _transition_rows(mask: int, n: int) -> list[int]:
    rows = []
    for i in range(n):
        row = (mask >> i) & 1 and (1 << i) or 0
        if i > 0:
            row |= 1 << (i - 1)
        if i + 1 < n:
            row |= 1 << (i + 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------

class TestRuleVector:
    def test_string_round_trip(self):
        rv = RuleVector("00000110")
        assert str(rv) == "00000110"
        assert rv.n == 8
        assert rv.cells() == (0, 0, 0, 0, 0, 1, 1, 0)

    def test_cell_zero_is_leftmost(self):
        assert RuleVector("10").mask == 1
        assert RuleVector("01").mask == 2

    def test_from_iterable(self):
        assert RuleVector([1, 0, 1]) == RuleVector("101")

    def test_from_mask(self):
        assert RuleVector.from_mask(0b011, 3) == RuleVector("110")

    @pytest.mark.parametrize("bad", ["", "210", "1x0"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(ValueError):
            RuleVector(bad)

    def test_rejects_bad_flags(self):
        with pytest.raises(ValueError):
            RuleVector([1, 2])
        with pytest.raises(ValueError):
            RuleVector([])

    def test_from_mask_bounds(self):
        with pytest.raises(ValueError):
            RuleVector.from_mask(0b100, 2)
        with pytest.raises(ValueError):
            RuleVector.from_mask(0, 0)

    def test_hash_and_eq(self):
        assert RuleVector("10") == RuleVector.from_mask(1, 2)
        assert RuleVector("10") != RuleVector("100")
        assert len({RuleVector("10"), RuleVector.from_mask(1, 2)}) == 1


class TestCharacteristicPolynomial:
    def test_two_cell_table_row(self):
        assert charpoly_str("10") == "111"

    def test_worked_example(self):
        assert charpoly_str("00000110") == "100011101"

    def test_four_cell_table_row(self):
        assert charpoly_str("1101") == "11001"

    def test_pure_rule_90_pair(self):
        # p_2 = x * x + 1 by the recurrence.
        assert charpoly_str("00") == "101"

    def test_single_cell(self):
        assert charpoly_str("0") == "10"
        assert charpoly_str("1") == "11"

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0))
    def test_monic_of_degree_n(self, n, seed):
        rv = RuleVector.from_mask(seed % (1 << n), n)
        p = characteristic_polynomial(rv)
        assert p.degree == n
        assert p.bits >> n == 1

    def test_cofactor_oracle_exhaustive(self):
        # Recurrence vs full determinant expansion, every diagonal, n <= 8.
        for n in range(1, 9):
            for mask in range(1 << n):
                rules = "".join(str((mask >> i) & 1) for i in range(n))
                expected = _cofactor_det(_char_matrix(rules))
                got = characteristic_polynomial(RuleVector(rules))
                assert got == Gf2Poly(expected), rules

    def test_constant_term_is_det_T(self):
        for n in range(1, 9):
            for mask in range(1 << n):
                rv = RuleVector.from_mask(mask, n)
                const = characteristic_polynomial(rv).bits & 1
                assert const == _gf2_det(_transition_rows(mask, n), n), (n, mask)

    def test_value_at_one_is_det_I_plus_T(self):
        # p(1) = det(I + T): the parity of the coefficients against
        # elimination on T with its diagonal flipped, every diagonal up to
        # n = 12.
        for n in range(1, 13):
            for mask in range(1 << n):
                rows = [row ^ (1 << i) for i, row in enumerate(_transition_rows(mask, n))]
                at_one = characteristic_polynomial(RuleVector.from_mask(mask, n)).bits.bit_count() & 1
                assert at_one == _gf2_det(rows, n), (n, mask)

    @given(st.integers(min_value=1, max_value=MAX_DEGREE).flatmap(
        lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))))
    def test_matches_plain_recurrence(self, case):
        mask, n = case
        minors = [1, 0b10 | (mask & 1)]
        for k in range(1, n):
            cell = 0b10 | ((mask >> k) & 1)
            minors.append(_poly_mul(cell, minors[k]) ^ minors[k - 1])
        assert characteristic_polynomial(RuleVector.from_mask(mask, n)).bits == minors[n]


rule_texts = st.text(alphabet="01", min_size=1, max_size=80)


class TestRuleVectorText:
    @given(rule_texts)
    def test_string_round_trip(self, text):
        assert str(RuleVector(text)) == text

    @given(st.integers(min_value=1, max_value=80).flatmap(
        lambda n: st.builds(RuleVector.from_mask, st.integers(0, (1 << n) - 1), st.just(n))))
    def test_from_mask_round_trip(self, rv):
        assert RuleVector(str(rv)) == rv

    @given(st.lists(st.sampled_from([0, 1, False, True]), min_size=1, max_size=40))
    def test_iterable_with_bools_equals_string(self, flags):
        rv = RuleVector(flags)
        assert rv == RuleVector("".join("1" if f else "0" for f in flags))
        assert type(rv.mask) is int

    @pytest.mark.parametrize("bad", [[2], [True, 2], [-1]])
    def test_iterable_rejects(self, bad):
        with pytest.raises(ValueError):
            RuleVector(bad)

    @given(rule_texts)
    def test_reverse_is_the_reversed_text(self, text):
        assert reverse(RuleVector(text)) == RuleVector(text[::-1])


class TestReverse:
    def test_worked_example_mirror(self):
        assert str(reverse(RuleVector("00000110"))) == "01100000"

    def test_two_cells(self):
        assert str(reverse(RuleVector("10"))) == "01"

    def test_palindrome_fixed(self):
        rv = RuleVector("0110")
        assert reverse(rv) == rv

    def test_involution(self):
        rv = RuleVector("1101001")
        assert reverse(reverse(rv)) == rv

    def test_mirror_invariance_small_n_exhaustive(self):
        # Full n <= 12 sweep lives in the acceptance suite.
        for n in range(1, 9):
            for mask in range(1 << n):
                rv = RuleVector.from_mask(mask, n)
                assert characteristic_polynomial(reverse(rv)) == characteristic_polynomial(rv)

    def test_mirror_pair_from_worked_example(self):
        a = characteristic_polynomial(RuleVector("00000110"))
        b = characteristic_polynomial(RuleVector("01100000"))
        assert a == b == parse_poly("100011101")
