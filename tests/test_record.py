"""`fdq.record.Record`: the value semantics every fdq record shares."""

from decimal import Decimal

import pytest

from fdq.cli import Session
from fdq.errors import ContractError
from fdq.fdstore import FDEntry
from fdq.partition import PLI
from fdq.record import Record, replace
from fdq.relation import And, Comparison, Or
from fdq.tokens import Token


class Pair(Record):
    left: int
    right: str = "r"


def test_equality_depends_on_the_class():
    leaf = Comparison("A", "=", 1)
    assert And((leaf,)) == And((leaf,))
    assert And((leaf,)) != Or((leaf,))
    assert And((leaf,)).__eq__(Or((leaf,))) is NotImplemented
    assert FDEntry(("A",), "B") != FDEntry(("A",), "C")


def test_equal_records_hash_equal():
    assert hash(FDEntry(("A",), "B", 0.0)) == hash(FDEntry(("A",), "B", -0.0))
    assert hash(Comparison("A", "=", 1)) == hash(("A", "=", 1))
    assert hash(And(())) == hash(((),))
    assert len({Pair(1), Pair(1, "r"), Pair(left=1), Pair(2)}) == 2


def test_records_are_frozen():
    entry = FDEntry(("A",), "B")
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'rhs'"):
        entry.rhs = "C"
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'rhs'"):
        del entry.rhs
    with pytest.raises(AttributeError):
        entry.other = 1
    assert entry.rhs == "B"


def test_replace_checks_the_new_record():
    entry = FDEntry(("A",), "B", 0.5)
    assert replace(entry, origin="imported") == FDEntry(("A",), "B", 0.5, "imported")
    assert entry.origin == "mined"
    with pytest.raises(ContractError, match="trivial"):
        replace(entry, rhs="A")
    with pytest.raises(TypeError, match="'nope'"):
        replace(entry, nope=1)


def test_pli_ids_are_not_compared_hashed_or_shown():
    plain = PLI(((0, 2),), 3)
    with_ids = PLI(((0, 2),), 3, [0, 1, 0])
    assert plain == with_ids and hash(plain) == hash(with_ids)
    assert repr(with_ids) == repr(plain)
    assert with_ids.ids == [0, 1, 0] and plain.ids is None


def test_repr_is_the_dataclass_form():
    assert repr(FDEntry(("A", "B"), "C", 0.25, "imported")) == (
        "FDEntry(lhs=('A', 'B'), rhs='C', error=0.25, origin='imported')"
    )
    assert repr(PLI(((0, 2), (1, 3)), 5, [0, 1, 0, 1, 4])) == (
        "PLI(clusters=((0, 2), (1, 3)), relation_size=5)"
    )
    assert repr(Token("number", "1.50", Decimal("1.50"), 3)) == (
        "Token(kind='number', text='1.50', value=Decimal('1.50'), pos=3)"
    )


def test_arguments_bind_by_position_then_keyword_then_default():
    assert Pair(1) == Pair(left=1) == Pair(1, "r") == Pair(right="r", left=1)
    assert vars(Pair(right="x", left=2)) == {"left": 2, "right": "x"}


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "Pair() got missing field 'left'"),
        ((1,), {"middle": 2}, "Pair() got unknown field 'middle'"),
        ((1,), {"left": 2}, "Pair() got repeated field 'left'"),
        ((1, "x", 3), {}, "Pair() takes 2 fields, got 3"),
    ],
    ids=["missing", "unknown", "repeated", "surplus"],
)
def test_a_bad_argument_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as caught:
        Pair(*args, **kwargs)
    assert str(caught.value) == message


def test_sessions_do_not_share_dicts():
    first, second = Session(), Session()
    first.relations["T"] = object()
    first.fdsets["fs"] = object()
    assert second.relations == {} and second.fdsets == {}
    assert first.relations is not second.relations
    assert first.fdsets is not second.fdsets
