"""The three records keep what a frozen dataclass gave their callers:
construction by position or keyword, value equality and hash within one
type, the field repr, and no assignment."""

import copy
import pickle

import pytest

from grassgb.cohomology import CohomologyClass
from grassgb.f2poly import parse
from grassgb.groebner_family import GrassmannContext
from grassgb.steenrod import ObstructionReport

CTX22 = GrassmannContext(2, 2)
W2 = parse("w2^2", 2)
CLASS = CohomologyClass(CTX22, W2)

# (type, field names, field values, another value of the first field, repr)
RECORDS = [
    (GrassmannContext, ("k", "n"), (3, 4), 4, "GrassmannContext(k=3, n=4)"),
    (
        CohomologyClass,
        ("context", "value"),
        (CTX22, W2),
        GrassmannContext(2, 3),
        "CohomologyClass(context=GrassmannContext(k=2, n=2), value=Poly(k=2, 'w2^2'))",
    ),
    (
        ObstructionReport,
        ("n", "sq1_value", "k1_obstruction_value", "lift_possible"),
        (2, CLASS, CLASS, True),
        3,
        "ObstructionReport(n=2, sq1_value=%r, k1_obstruction_value=%r, lift_possible=True)"
        % (CLASS, CLASS),
    ),
]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS)
def test_record_behaves_as_a_frozen_dataclass(cls, names, values, other, text):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert record != cls(other, *values[1:])
    # equal only within its own type: not to the tuple of its fields
    assert record != values and values != record
    assert repr(record) == text
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, names[0]) == values[0]
    assert copy.copy(record) == record


def test_context_pickles():
    ctx = GrassmannContext(5, 9)
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_record_errors_unchanged():
    with pytest.raises(ValueError) as info:
        GrassmannContext(3, 2)
    assert str(info.value) == "need n >= k >= 2, got k=3, n=2"
    with pytest.raises(ValueError) as info:
        CohomologyClass(CTX22, parse("w1", 3))
    assert str(info.value) == "variable count does not match the context"
    with pytest.raises(ValueError) as info:
        CohomologyClass(CTX22, parse("w1^3 + w2", 2))
    assert str(info.value) == "not in normal form, offending terms: [(3, 0)]"
    with pytest.raises(TypeError):
        ObstructionReport(8, CLASS, CLASS)

