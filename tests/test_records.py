"""Value types: immutable, compared and hashed by value, and rebuilt
unchanged by pickle and deepcopy."""

import copy
import pickle

import pytest

from maxca.automaton import CaState
from maxca.charpoly import RuleVector
from maxca.enumerator import FilterStats, MaxLenEntry
from maxca.gf2poly import Gf2Poly
from maxca.gf2poly import _Record
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


# The records that take their fields straight through _Record's binder.
BOUND = [
    value for value, _ in VALUES
    if type(value) in (MaxLenEntry, FilterStats, MersenneFactorization, RowVerdict, VerificationReport)
]
BOUND_IDS = [type(value).__name__ for value in BOUND]


def _fields(value):
    return [getattr(value, name) for name in type(value).__slots__]


@pytest.mark.parametrize("value", BOUND, ids=BOUND_IDS)
def test_positional_and_keyword_construction_agree(value):
    cls, names, fields = type(value), type(value).__slots__, _fields(value)
    assert cls(*fields) == value
    assert cls(**dict(zip(names, fields))) == value
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == value
    assert cls(**dict(reversed(list(zip(names, fields))))) == value


@pytest.mark.parametrize("value", BOUND, ids=BOUND_IDS)
def test_each_field_needs_exactly_one_value(value):
    cls, names, fields = type(value), type(value).__slots__, _fields(value)
    calls = [
        lambda: cls(*fields[:-1]),  # last field missing
        lambda: cls(**dict(zip(names[1:], fields[1:]))),  # first field missing
        lambda: cls(*fields, 0),  # extra positional
        lambda: cls(*fields, bogus=0),  # unknown keyword
        lambda: cls(*fields[:1], **dict(zip(names, fields))),  # keyword repeats a positional
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_two_record_classes_with_equal_values_are_unequal():
    # Equality reads each class's own fields; the class decides first.
    class Left(_Record):
        __slots__ = ("a", "b")

    class Right(_Record):
        __slots__ = ("a", "b")

    assert Left(1, 2) == Left(a=1, b=2)
    assert Left(1, 2) != Right(1, 2)
    assert Right(1, 2) != Left(1, 2)
    assert CaState(bits=2, n=2) != RuleVector.from_mask(2, 2)  # fields (2, 2) both
    assert Gf2Poly(5) != 5
