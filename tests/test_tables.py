"""The bundled n=2..12 reference table and its re-verification.

The six n=5 rows are known bad in the source print: the rule-vector
column of that block is paired with the wrong polynomials (each printed
vector is genuinely maximum-length and each printed polynomial is
genuinely primitive, but the rows mismatch). Verification must surface
exactly that, with diagnostics, and pass everything else.
"""

import hashlib

import pytest

from maxca import tables
from maxca.automaton import _cycle_length_jump, cycle_length_from, unit_seed
from maxca.charpoly import RuleVector, characteristic_polynomial
from maxca.enumerator import enumerate_maxlen
from maxca.gf2poly import format_poly
from maxca.primitivity import enumerate_primitive, primitive_count
from maxca.tables import TableRow, load_rows, verify_all, verify_row

EXPECTED_ROW_COUNTS = {2: 1, 3: 2, 4: 2, 5: 6, 6: 6, 7: 18, 8: 16, 9: 48, 10: 60, 11: 176, 12: 144}


class TestLoadRows:
    def test_total(self):
        assert len(load_rows()) == 479

    @pytest.mark.parametrize("n,count", sorted(EXPECTED_ROW_COUNTS.items()))
    def test_per_n_counts(self, n, count):
        assert len(load_rows(n)) == count

    def test_n2_row(self):
        assert load_rows(2) == [TableRow(n=2, poly_str="111", rv_str="10")]

    def test_rows_are_structurally_valid(self):
        for row in load_rows():
            assert len(row.poly_str) == row.n + 1
            assert len(row.rv_str) == row.n
            assert row.poly_str[0] == "1"

    def test_no_duplicate_polynomials_within_n(self):
        seen = set()
        for row in load_rows():
            key = (row.n, row.poly_str)
            assert key not in seen
            seen.add(key)

    def test_polynomials_are_subset_of_primitive_list(self):
        for n in range(2, 13):
            listed = {format_poly(p) for p in enumerate_primitive(n)}
            printed = {r.poly_str for r in load_rows(n)}
            assert printed <= listed
            assert len(printed) <= primitive_count(n)


class TestTableRowValidation:
    @pytest.mark.parametrize(
        "n,poly,rv",
        [
            (2, "011", "10"),   # not monic
            (2, "111", "101"),  # rule vector too long
            (2, "1111", "10"),  # polynomial length off
            (2, "1x1", "10"),   # foreign character
            (0, "1", ""),       # no cells
        ],
    )
    def test_malformed_rows_are_structural_errors(self, n, poly, rv):
        with pytest.raises(ValueError):
            TableRow(n=n, poly_str=poly, rv_str=rv)


class TestVerifyRow:
    def test_cycle_length_equals_raw_simulation_on_every_row(self):
        for row in load_rows():
            rv, seed = RuleVector(row.rv_str), unit_seed(row.n)
            want = cycle_length_from(rv, seed)
            assert _cycle_length_jump(rv, seed) == want
            assert verify_row(row).cycle_length == want

    def test_jumps_at_every_n(self, monkeypatch):
        calls = []
        for name in ("cycle_length_from", "_cycle_length_jump"):
            fn = getattr(tables, name)
            monkeypatch.setattr(tables, name, lambda rv, seed, fn=fn, name=name: calls.append((rv.n, name)) or fn(rv, seed))
        for n in range(2, 13):
            verify_row(load_rows(n)[0])
        assert calls == [(n, "_cycle_length_jump") for n in range(2, 13)]

    def test_worked_example_passes(self):
        v = verify_row(TableRow(n=8, poly_str="100011101", rv_str="00000110"))
        assert v.charpoly_match
        assert v.poly_primitive
        assert v.cycle_length == 255
        assert v.passed

    def test_n4_row_passes(self):
        assert verify_row(TableRow(n=4, poly_str="11001", rv_str="1101")).passed

    def test_synthetic_bad_row_fails_on_charpoly(self):
        # det(xI + [[1,1],[1,1]]) = (x+1)^2 - 1 = x^2, per the cofactor
        # oracle; the row cannot match the printed "111".
        v = verify_row(TableRow(n=2, poly_str="111", rv_str="11"))
        assert not v.charpoly_match
        assert v.computed_poly == "100"
        assert not v.passed

    def test_match_accepts_mirrored_orientation(self):
        # The mirrored vector is printed in the worked example too.
        v = verify_row(TableRow(n=8, poly_str="100011101", rv_str="01100000"))
        assert v.charpoly_match
        assert v.passed


class TestVerifyAll:
    def test_everything_outside_n5_passes(self):
        for n in sorted(EXPECTED_ROW_COUNTS):
            if n == 5:
                continue
            report = verify_all(n)
            assert report.total == EXPECTED_ROW_COUNTS[n]
            assert report.passed == report.total
            assert report.failures == ()

    def test_n5_block_is_mispaired(self):
        report = verify_all(5)
        assert report.total == 6
        assert report.passed == 0
        for v in report.failures:
            # Pairing is wrong, but each half of the row is sound.
            assert not v.charpoly_match
            assert v.poly_primitive
            assert v.cycle_length == 31

    def test_n5_printed_columns_are_the_right_sets(self):
        entries = enumerate_maxlen(5)
        true_polys = {format_poly(e.polynomial) for e in entries}
        true_rvs = {str(e.rule_vector) for e in entries}
        assert {r.poly_str for r in load_rows(5)} == true_polys
        assert {r.rv_str for r in load_rows(5)} <= true_rvs
        covered = {
            format_poly(characteristic_polynomial(RuleVector(r.rv_str)))
            for r in load_rows(5)
        }
        assert covered == true_polys

    def test_full_report_counts(self):
        report = verify_all()
        assert report.total == 479
        assert report.passed == 473
        assert len(report.failures) == 6
        assert report.passed + len(report.failures) == report.total

    def test_every_verdict_is_pinned(self):
        # Each row's computed polynomial, match, primitivity and cycle
        # length, one line per row in print order, hashed: the order
        # tests behind the last two run through gf2poly's power kernel.
        verdicts = [verify_row(r) for r in load_rows()]
        text = "".join(
            f"{v.row.n} {v.row.poly_str} {v.row.rv_str} {v.computed_poly} "
            f"{v.charpoly_match} {v.poly_primitive} {v.cycle_length}\n"
            for v in verdicts
        )
        assert len(verdicts) == 479
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e3fb68796a251527059e985e48920897aa708b3b9a024f12465a228f194db850"
        )
        assert verify_all().failures == tuple(v for v in verdicts if not v.passed)

    def test_full_errata_text(self, tmp_path):
        path = tmp_path / "errata.txt"
        verify_all().write_errata(path)
        assert path.read_text() == (
            "# Rows that failed re-verification; reason appended.\n"
            "5 100101 11100 charpoly(rv)=111011 != printed poly\n"
            "5 101001 10000 charpoly(rv)=110111 != printed poly\n"
            "5 101111 01100 charpoly(rv)=101001 != printed poly\n"
            "5 110111 10011 charpoly(rv)=111101 != printed poly\n"
            "5 111011 11000 charpoly(rv)=101111 != printed poly\n"
            "5 111101 11110 charpoly(rv)=100101 != printed poly\n"
        )

    def test_errata_lines_format(self):
        report = verify_all(5)
        lines = report.errata_lines()
        assert len(lines) == 6
        for line in lines:
            n, poly, rv, reason = line.split(maxsplit=3)
            assert n == "5"
            assert len(poly) == 6 and len(rv) == 5
            assert "charpoly" in reason

    def test_write_errata(self, tmp_path):
        path = tmp_path / "errata.txt"
        verify_all(5).write_errata(path)
        content = path.read_text().splitlines()
        assert content[0].startswith("#")
        assert len(content) == 7

    @pytest.mark.parametrize("n", [13, 1, 0, -1])
    def test_n_without_rows_is_an_error(self, n):
        with pytest.raises(ValueError, match=rf"^no table rows for n = {n}; the table covers n = 2\.\.12$"):
            verify_all(n)

    def test_table_rows_visit_distinct_nonzero_states(self):
        # One full period from the unit seed touches every nonzero state
        # exactly once; walk it explicitly for the smaller blocks.
        from maxca.automaton import next_state, unit_seed

        for row in load_rows():
            if row.n > 8:
                continue
            rv = RuleVector(row.rv_str)
            seen = set()
            s = unit_seed(row.n)
            for _ in range((1 << row.n) - 1):
                s = next_state(rv, s)
                assert s.bits != 0
                seen.add(s.bits)
            assert len(seen) == (1 << row.n) - 1
            assert s == unit_seed(row.n)
