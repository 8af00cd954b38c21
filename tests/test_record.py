"""The three records keep what a frozen dataclass gave their callers:
construction by position or keyword, value equality and hash within one
type, the field repr, and no assignment.  ``Poly`` is a record too: its
fields are fixed, and it copies and pickles, alone or inside a record."""

import copy
import pickle

import pytest

from grassgb.cohomology import CohomologyClass
from grassgb.f2poly import parse
from grassgb.groebner_family import GrassmannContext
from grassgb.steenrod import ObstructionReport, immersion_obstruction_check

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
        ("n", "sq1_value", "k1_obstruction_value"),
        (2, CLASS, CLASS),
        3,
        "ObstructionReport(n=2, sq1_value=%r, k1_obstruction_value=%r)" % (CLASS, CLASS),
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
        ObstructionReport(8, CLASS, CLASS, True)
    with pytest.raises(TypeError):
        ObstructionReport(8, CLASS)



CLONES = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize(
    "make",
    [lambda: W2, lambda: CLASS, lambda: immersion_obstruction_check(16)],
    ids=["Poly", "CohomologyClass", "ObstructionReport"],
)
def test_copy_and_pickle_round_trip(make, clone):
    value = make()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)


def test_poly_fields_are_fixed():
    p = parse("w1^2 + w2", 2)
    assert hash(p) == hash((p.k, p.terms))
    for name in ("k", "terms"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(p, name, 3)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(p, name)
    assert p == parse("w1^2 + w2", 2) and p
