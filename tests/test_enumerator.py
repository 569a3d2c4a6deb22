"""Exhaustive search: table reproduction, filter soundness, mirror
closure, agreement with raw simulation, and the lane scan against a
per-diagonal loop at every n from 2."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import maxca
from maxca.automaton import cycle_length_from, unit_seed
from maxca.charpoly import RuleVector, _charpoly_bits, characteristic_polynomial, reverse
from maxca.enumerator import (
    EXHAUSTIVE_CAP,
    FilterStats,
    MaxLenEntry,
    _primitive_set,
    _scan,
    enumerate_maxlen,
    filter_stats,
    rule_vectors_for,
)
from maxca.gf2poly import _reverse_bits, format_poly, parse_poly, weight
from maxca.primitivity import MAX_FACTOR_N, enumerate_primitive, factorize_mersenne, is_primitive, primitive_count
from references import odd_weight, per_diagonal


def entry_strings(entries):
    return [(format_poly(e.polynomial), str(e.rule_vector)) for e in entries]


def maxlen_by_own_text(n):
    # The oracle for the listing: an order test on every diagonal, each
    # vector written by its own str, so that no text comes from another
    # vector's mask, as (polynomial, text) pairs sorted by polynomial
    # value, then text.
    f = factorize_mersenne(n)
    want = []
    for mask in range(1 << n):
        rv = RuleVector.from_mask(mask, n)
        p = characteristic_polynomial(rv)
        if is_primitive(p, f):
            want.append((format_poly(p), str(rv)))
    want.sort(key=lambda t: (int(t[0], 2), t[1]))
    return want


def cascade_by_transfer_matrix(n):
    # (even weight, zero constant) by the transfer-matrix method: count
    # the diagonals in each of the 16 states (p_{k-1}(0), p_{k-1}(1),
    # p_k(0), p_k(1)) from p_{-1} = 0, p_0 = 1, cell by cell, where
    # p_{k+1} = (x + d_k) p_k + p_{k-1} over GF(2). Weight is even
    # exactly where p(1) = 0.
    counts = Counter({(0, 0, 1, 1): 1})
    for _ in range(n):
        step = Counter()
        for (a0, a1, b0, b1), count in counts.items():
            for d in (0, 1):
                step[b0, b1, d & b0 ^ a0, (1 ^ d) & b1 ^ a1] += count
        counts = step
    even_weight = sum(count for state, count in counts.items() if state[3] == 0)
    zero_constant = sum(count for state, count in counts.items() if state[2:] == (0, 1))
    return even_weight, zero_constant


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
        assert entry_strings(enumerate_maxlen(n)) == maxlen_by_own_text(n)

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

    @pytest.mark.parametrize("n", (*range(8, 15), 16))
    def test_matches_per_diagonal_scan(self, n):
        # The first, middle and last primitive polynomial of degree n;
        # the vectors come sorted by their reversed masks.
        primitive = enumerate_primitive(n)
        chosen = (primitive[0], primitive[len(primitive) // 2], primitive[-1])
        hit_lists, _ = per_diagonal(n, [{p.bits} for p in chosen])
        for p, hits in zip(chosen, hit_lists):
            hits.sort(key=lambda hit: _reverse_bits(hit[0], n))
            assert rule_vectors_for(p) == [RuleVector.from_mask(mask, n) for mask, _ in hits]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_per_vector_text(self, n):
        # Every primitive polynomial of degree n, against the vectors
        # that each write their own text, in order.
        want = maxlen_by_own_text(n)
        for p in enumerate_primitive(n):
            poly = format_poly(p)
            assert [str(rv) for rv in rule_vectors_for(p)] == [text for q, text in want if q == poly]


class TestFilterStats:
    def test_totals_sum(self):
        for n in range(2, 13):
            s = filter_stats(n)
            assert s.total == 1 << n
            assert (
                s.even_weight + s.zero_constant + s.not_primitive + s.survivors
                == s.total
            )

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8, 12))
    def test_each_count_matches_per_diagonal_scan(self, n):
        # Each field in its place, below 8 cells and from 8 on;
        # TestCharpolyLanes goes on to n = 18.
        _, cascade = per_diagonal(n, [_primitive_set(n)])
        assert filter_stats(n) == FilterStats(n, 1 << n, *cascade)

    def test_counts_match_transfer_matrix(self):
        # The closed forms against the transfer matrix, and two rule
        # vectors per primitive polynomial, as far as force reaches.
        for n in range(2, MAX_FACTOR_N + 1):
            s = filter_stats(n, force=True)
            assert (s.even_weight, s.zero_constant) == cascade_by_transfer_matrix(n), n
            assert s.survivors == 2 * primitive_count(n)
            assert s.even_weight + s.zero_constant + s.not_primitive + s.survivors == s.total == 1 << n

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


class TestCharpolyLanes:
    @pytest.mark.parametrize("n", range(2, 19))
    def test_matches_per_diagonal_scan(self, n):
        # Up to 8 cells the lane starts are the whole scan: one leaf of
        # 2^n lanes, read back through 8-bit slots. From 9 on the walk
        # steps cells 8..n-1, and at n = 17 and 18 it walks more cells
        # than the lanes set. The primitive set, and every odd-weight
        # polynomial, which every lane that passes the cascade hits, so
        # every lane read back is checked. The oracle's counts for the
        # primitive set are filter_stats's closed forms.
        target_sets = [_primitive_set(n), odd_weight(n)]
        hits, cascade = per_diagonal(n, target_sets)
        for targets, want in zip(target_sets, hits):
            assert sorted((mask, bits) for bits, mask in _scan(n, targets)) == want
        assert filter_stats(n) == FilterStats(n, 1 << n, *cascade)

    @pytest.mark.parametrize("n", (16, 17, 18))
    def test_mirror_pairs_match_per_diagonal_scan(self, n):
        # From 16 cells on a leaf reads only the lanes below its top
        # cells reversed, and that lane itself by its middle cells, and
        # each hit gives its mirror. The targets are the polynomials of
        # seeded random diagonals, of palindromes, and of ties, whose
        # lane is their top cells reversed, as is their mirror's.
        rng = random.Random(n)
        diagonals = [rng.getrandbits(n) for _ in range(64)]
        for _ in range(64):
            half = rng.getrandbits((n + 1) // 2)
            diagonals.append(half | _reverse_bits(half, n))
            lane, middle = rng.getrandbits(8), rng.getrandbits(n - 16)
            diagonals.append(lane | middle << 8 | _reverse_bits(lane, n))
        targets = frozenset(_charpoly_bits(d, n) for d in diagonals)
        [want], _ = per_diagonal(n, [targets])
        assert sorted((mask, bits) for bits, mask in _scan(n, targets)) == want

    @pytest.mark.parametrize("n", range(2, 17))
    def test_every_degree_n_target_gives_every_diagonal(self, n):
        # With every polynomial of degree n as a target, every diagonal
        # is a hit, palindromes and even-weight polynomials included,
        # each once and with its own polynomial. At n = 15 a polynomial
        # fills its 16-bit slot; n = 16 is the first with 32-bit slots.
        hits = _scan(n, frozenset(range(1 << n, 1 << (n + 1))))
        assert sorted(mask for _, mask in hits) == list(range(1 << n))
        assert all(bits == _charpoly_bits(mask, n) for bits, mask in hits)

    @pytest.mark.parametrize("n", (8, 9, 12, 13))
    def test_hits_closed_under_reversal(self, n):
        # A diagonal and its mirror image have one polynomial, so each
        # comes out once, and a palindrome, its own mirror, once.
        # Palindromes pass the cascade at even n only (none of the
        # 2^ceil(n/2) does at odd n <= 13), so even n covers their lanes.
        hits = _scan(n, odd_weight(n))
        masks = [mask for _, mask in hits]
        assert len(set(masks)) == len(masks)
        assert {_reverse_bits(mask, n) for mask in masks} == set(masks)
        assert any(_reverse_bits(mask, n) == mask for mask in masks) == (n % 2 == 0)
