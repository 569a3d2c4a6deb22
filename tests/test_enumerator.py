"""Exhaustive search: table reproduction, filter soundness, mirror
closure, and agreement with raw simulation."""

import os
import subprocess
import sys

import pytest

import maxca
from maxca.automaton import cycle_length_from, unit_seed
from maxca.charpoly import RuleVector, characteristic_polynomial, reverse
from maxca.enumerator import (
    EXHAUSTIVE_CAP,
    MaxLenEntry,
    enumerate_maxlen,
    filter_stats,
    rule_vectors_for,
)
from maxca.gf2poly import format_poly, parse_poly, weight
from maxca.primitivity import factorize_mersenne, is_primitive, primitive_count


def entry_strings(entries):
    return [(format_poly(e.polynomial), str(e.rule_vector)) for e in entries]


class TestEnumerateMaxlen:
    def test_n2_exact(self):
        # Sorted by polynomial value, then rule-vector text value.
        assert entry_strings(enumerate_maxlen(2)) == [("111", "01"), ("111", "10")]

    def test_n8_contains_worked_pair_and_mirror(self):
        pairs = set(entry_strings(enumerate_maxlen(8)))
        assert ("100011101", "00000110") in pairs
        assert ("100011101", "01100000") in pairs

    def test_n5_polynomials_match_table_block(self):
        polys = {format_poly(e.polynomial) for e in enumerate_maxlen(5)}
        assert polys == {"100101", "101001", "101111", "110111", "111011", "111101"}

    def test_every_entry_satisfies_its_invariants(self):
        for e in enumerate_maxlen(7):
            assert characteristic_polynomial(e.rule_vector) == e.polynomial
            assert is_primitive(e.polynomial)
            assert e.n == 7

    def test_mirror_closure(self):
        for n in range(2, 11):
            pairs = {(e.polynomial.bits, str(e.rule_vector)) for e in enumerate_maxlen(n)}
            for poly_bits, rv in pairs:
                mirrored = str(reverse(RuleVector(rv)))
                assert (poly_bits, mirrored) in pairs

    def test_two_vectors_per_polynomial_no_palindromes(self):
        # Every polynomial came out with exactly its mirror pair so far;
        # a palindromic survivor would make the pair collapse to one.
        for n in range(2, 11):
            entries = enumerate_maxlen(n)
            assert not any(e.is_palindrome() for e in entries)
            assert len(entries) == 2 * primitive_count(n)

    def test_output_sorted(self):
        entries = enumerate_maxlen(6)
        keys = [(e.polynomial.bits, str(e.rule_vector)) for e in entries]
        assert keys == sorted(keys)

    def test_jobs_do_not_change_output(self):
        assert entry_strings(enumerate_maxlen(10, jobs=4)) == entry_strings(
            enumerate_maxlen(10, jobs=1)
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_per_diagonal_order_test(self, n):
        # The scan this one replaced: an order test on every diagonal.
        f = factorize_mersenne(n)
        want = []
        for mask in range(1 << n):
            rv = RuleVector.from_mask(mask, n)
            p = characteristic_polynomial(rv)
            if is_primitive(p, f):
                want.append((format_poly(p), str(rv)))
        want.sort(key=lambda t: (int(t[0], 2), t[1]))
        assert entry_strings(enumerate_maxlen(n)) == want

    def test_import_leaves_process_pool_unloaded(self):
        # No scan starts a process pool, so nothing imports its machinery.
        out = subprocess.run(
            [sys.executable, "-c", "import sys, maxca; print('concurrent.futures' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "False\n"

    def test_import_loads_no_dataclasses_typing_or_resources(self):
        # Without site (-S), nothing preloads these; maxca must not need them.
        src = os.path.dirname(os.path.dirname(maxca.__file__))
        heavy = ("dataclasses", "inspect", "typing", "importlib.resources")
        out = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys, maxca; print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out == "[]\n"

    def test_oracle_equivalence_small(self):
        # Raw simulation agrees with the algebraic route; acceptance
        # extends this to n <= 10.
        for n in range(2, 9):
            simulated = {
                mask
                for mask in range(1 << n)
                if cycle_length_from(RuleVector.from_mask(mask, n), unit_seed(n))
                == (1 << n) - 1
            }
            algebraic = {e.rule_vector.mask for e in enumerate_maxlen(n)}
            assert simulated == algebraic, n

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_maxlen(1)
        with pytest.raises(ValueError):
            enumerate_maxlen(EXHAUSTIVE_CAP + 1)
        with pytest.raises(ValueError):
            enumerate_maxlen(8, jobs=0)

    def test_palindrome_flag(self):
        e = MaxLenEntry(
            n=2,
            rule_vector=RuleVector("01"),
            polynomial=parse_poly("111"),
        )
        assert not e.is_palindrome()


class TestRuleVectorsFor:
    def test_n2(self):
        assert [str(rv) for rv in rule_vectors_for(parse_poly("111"))] == ["01", "10"]

    def test_worked_example(self):
        got = {str(rv) for rv in rule_vectors_for(parse_poly("100011101"))}
        assert {"00000110", "01100000"} <= got

    def test_n4_row_with_mirror(self):
        got = {str(rv) for rv in rule_vectors_for(parse_poly("11001"))}
        assert {"1101", "1011"} <= got

    def test_closed_under_reverse(self):
        got = rule_vectors_for(parse_poly("11001"))
        assert {str(reverse(rv)) for rv in got} == {str(rv) for rv in got}

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            rule_vectors_for(parse_poly("101"))


class TestFilterStats:
    def test_totals_sum(self):
        for n in range(2, 13):
            s = filter_stats(n)
            assert s.total == 1 << n
            assert (
                s.even_weight + s.zero_constant + s.not_primitive + s.survivors
                == s.total
            )

    def test_survivors_match_enumeration(self):
        for n in (2, 5, 8):
            assert filter_stats(n).survivors == len(enumerate_maxlen(n))

    def test_n2_survivors(self):
        assert filter_stats(2).survivors == 2

    def test_n8_survivors(self):
        assert filter_stats(8).survivors == 32

    def test_filters_never_reject_a_primitive_charpoly(self):
        # Acceptance runs the same sweep out to n = 12.
        for n in range(2, 9):
            for mask in range(1 << n):
                p = characteristic_polynomial(RuleVector.from_mask(mask, n))
                if weight(p) % 2 == 0 or p.bits & 1 == 0:
                    assert not is_primitive(p), (n, mask)
