"""Value types: immutable, compared and hashed by value, and rebuilt
unchanged by pickle and deepcopy."""

import copy
import pickle

import pytest

from maxca.automaton import CaState
from maxca.charpoly import RuleVector
from maxca.enumerator import FilterStats, MaxLenEntry
from maxca.gf2poly import Gf2Poly
from maxca.primitivity import MersenneFactorization, factorize_mersenne
from maxca.tables import RowVerdict, TableRow, VerificationReport

ROW = TableRow(n=3, poly_str="1011", rv_str="011")
VERDICT = RowVerdict(ROW, "1101", False, True, 7)

VALUES = [
    (Gf2Poly(0b100011101), "Gf2Poly('100011101')"),
    (RuleVector("00000110"), "RuleVector('00000110')"),
    (CaState(bits=5, n=4), "CaState(bits=5, n=4)"),
    (factorize_mersenne(4), "MersenneFactorization(n=4, value=15, prime_factors=((3, 1), (5, 1)))"),
    (
        MaxLenEntry(2, RuleVector("01"), Gf2Poly(0b111)),
        "MaxLenEntry(n=2, rule_vector=RuleVector('01'), polynomial=Gf2Poly('111'))",
    ),
    (
        FilterStats(n=2, total=4, even_weight=1, zero_constant=1, not_primitive=0, survivors=2),
        "FilterStats(n=2, total=4, even_weight=1, zero_constant=1, not_primitive=0, survivors=2)",
    ),
    (ROW, "TableRow(n=3, poly_str='1011', rv_str='011')"),
    (
        VERDICT,
        "RowVerdict(row=TableRow(n=3, poly_str='1011', rv_str='011'), computed_poly='1101', "
        "charpoly_match=False, poly_primitive=True, cycle_length=7)",
    ),
    (
        VerificationReport(total=1, passed=0, failures=(VERDICT,)),
        "VerificationReport(total=1, passed=0, failures=(RowVerdict(row=TableRow(n=3, "
        "poly_str='1011', rv_str='011'), computed_poly='1101', charpoly_match=False, "
        "poly_primitive=True, cycle_length=7),))",
    ),
]


IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_round_trip_keeps_equality_hash_and_repr(value, text):
    assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)
        assert repr(copied) == text


@pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=IDS)
def test_fields_cannot_be_set_or_deleted(value):
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, 0)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, name)


def test_equal_fields_of_another_type_are_unequal():
    assert CaState(bits=1, n=2) != MersenneFactorization(1, 2, ())
    assert CaState(bits=1, n=2) == CaState(1, 2)
    assert CaState(bits=1, n=2) != CaState(bits=1, n=3)


def test_validation_keeps_its_messages():
    with pytest.raises(ValueError, match="state has bits beyond cell count"):
        CaState(bits=4, n=2)
    with pytest.raises(ValueError, match="polynomial must have degree 4"):
        TableRow(4, "1011", "0110")
    with pytest.raises(ValueError, match="rule vector must have 3 cells"):
        TableRow(n=3, poly_str="1011", rv_str="0110")
