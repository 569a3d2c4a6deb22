"""Each size limit has one home, and every entry point it bounds gives
that home's error: the degree ceiling in `Gf2Poly`, the factoring limit
in `factorize_mersenne`, the listing cap in `enumerate_primitive`,
degree >= 1 in the primitivity tests."""

import pytest

from maxca.automaton import _cycle_length_jump, unit_seed
from maxca.charpoly import RuleVector, characteristic_polynomial
from maxca.cli import main
from maxca.enumerator import EXHAUSTIVE_CAP, filter_stats
from maxca.gf2poly import MAX_DEGREE, DegreeOverflowError, Gf2Poly
from maxca.primitivity import (
    LISTING_CAP,
    MAX_FACTOR_N,
    enumerate_primitive,
    factorize_mersenne,
    is_irreducible,
    is_primitive,
    order_of_x,
    primitive_count,
)


def _message(fn, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def _cli_error(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestDegreeCeiling:
    def test_constructor_refuses_degree_above_ceiling(self):
        assert Gf2Poly(1 << MAX_DEGREE).degree == MAX_DEGREE
        with pytest.raises(DegreeOverflowError, match=f"degree {MAX_DEGREE + 1} "):
            Gf2Poly(1 << (MAX_DEGREE + 1))

    def test_characteristic_polynomial_refuses_65_cells(self):
        assert characteristic_polynomial(RuleVector("1" * MAX_DEGREE)).degree == MAX_DEGREE
        with pytest.raises(DegreeOverflowError):
            characteristic_polynomial(RuleVector("1" * (MAX_DEGREE + 1)))

    def test_cli_charpoly_65_cells_exit_2(self, capsys):
        err = _cli_error(capsys, "charpoly", "--rules", "0" * (MAX_DEGREE + 1))
        assert err.startswith("maxca charpoly: error: ")
        assert "MAX_DEGREE" in err

    def test_cli_charpoly_64_cells_prints(self, capsys):
        assert main(["charpoly", "--rules", "0" * MAX_DEGREE]) == 0
        out = capsys.readouterr().out
        assert len(out) == MAX_DEGREE + 2 and out[0] == "1" and out[-1] == "\n"


class TestFactoringLimit:
    def test_every_entry_point_gives_the_same_message(self, capsys):
        n = MAX_FACTOR_N + 1
        want = _message(factorize_mersenne, n)
        assert "factors 2^n - 1" in want
        assert _message(enumerate_primitive, n) == want
        rv = RuleVector.from_mask(0, n)
        assert _message(_cycle_length_jump, rv, unit_seed(n), force=True) == want
        poly = "1" + "0" * (n - 1) + "1"
        assert _cli_error(capsys, "primitive", "--poly", poly) == f"maxca primitive: error: {want}\n"


class TestListingCap:
    @pytest.mark.parametrize("n", [LISTING_CAP + 1, MAX_FACTOR_N])
    def test_listing_refuses_degree_above_cap(self, n):
        assert _message(enumerate_primitive, n) == (
            f"listing the primitive polynomials of degree {n} exceeds the n<={LISTING_CAP} cap"
        )

    @pytest.mark.parametrize("argv", [
        ("primpoly-list", "--n", str(LISTING_CAP + 1)),
        ("enum", "--n", str(LISTING_CAP + 1), "--force"),
    ])
    def test_cli_exit_2(self, capsys, argv):
        err = _cli_error(capsys, *argv)
        assert err.startswith(f"maxca {argv[0]}: error: listing the primitive polynomials")


class TestFilterStatsLimits:
    # filter_stats builds no listing, so with force it goes past
    # LISTING_CAP and stops where primitive_count does.
    def test_same_messages_without_force(self):
        assert _message(filter_stats, 1) == "need at least 2 cells, got 1"
        n = EXHAUSTIVE_CAP + 1
        assert _message(filter_stats, n) == (
            f"exhaustive scan of 2^{n} diagonals exceeds the n<={EXHAUSTIVE_CAP} "
            "cap; use the force override to go beyond it"
        )

    def test_force_goes_past_the_listing_cap(self):
        n = LISTING_CAP + 1
        s = filter_stats(n, force=True)
        assert s.total == 1 << n
        assert s.survivors == 2 * primitive_count(n)

    def test_force_stops_at_the_factoring_limit(self):
        n = MAX_FACTOR_N + 1
        assert _message(filter_stats, n, force=True) == _message(factorize_mersenne, n)


class TestDegreeAtLeastOne:
    @pytest.mark.parametrize("bits", [0, 1])
    def test_same_message_from_every_test(self, bits):
        p = Gf2Poly(bits)
        want = _message(is_irreducible, p)
        assert "degree >= 1" in want
        assert _message(is_primitive, p) == want
        assert _message(order_of_x, p) == want
