"""The record types are immutable named tuples, hashed and compared by value."""
import pytest

from burniat.degeneration import SMOOTH, FiberContext, exceptional_collection_check
from burniat.effective import KX, InS, ReductionStep, ReductionTrace, decide, scan
from burniat.lattice import YClass
from burniat.picard import XClass, build_generator_table, parse_xclass


def test_two_scans_do_not_share_a_records_list():
    table = build_generator_table(6)
    a, b = scan(table, 3), scan(table, 3)
    assert a.records is not b.records and a.records == b.records
    a.records.clear()
    assert len(b.records) == 384


def test_two_collection_checks_do_not_share_their_rows():
    a, b = exceptional_collection_check(SMOOTH), exceptional_collection_check(SMOOTH)
    assert a.pairs is not b.pairs and a.selfs is not b.selfs
    a.pairs.clear()
    a.selfs.clear()
    assert (len(b.pairs), len(b.selfs)) == (15, 6)


@pytest.mark.parametrize("record, attr", [
    (parse_xclass("(3; 1 10; 1 10; 1 10)"), "mask"),
    (YClass((1, 0, 0, 0)), "coeffs"),
    (ReductionTrace(KX, (ReductionStep("A0", "negative"),), KX), "final"),
    (InS((1,) + (0,) * 11), "certificate"),
])
def test_records_refuse_attribute_assignment(record, attr):
    with pytest.raises(AttributeError):
        setattr(record, attr, getattr(record, attr))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_values_hash_equal():
    table = build_generator_table(6)
    x = parse_xclass("(9; 1 01; 2 10; 3 11)")
    pairs = [(x, XClass(5, -1, -2, -3, 0b011011)),
             (YClass((2, 1, 0, 0)), YClass((2, 1, 0, 0))),
             (decide(table, KX), decide(table, parse_xclass(str(KX)))),
             (FiberContext("smooth"), SMOOTH)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert x != XClass(5, -1, -2, -3, 0b011010)


def test_an_xclass_never_equals_its_packed_tuple():
    # the five entries (n_h, n_1, n_2, n_3, mask) without the exceptional
    # part are no class: the tuple compares unequal to the class it names
    table = build_generator_table(6)
    for r in scan(table, 3).records:
        assert r.x != r.x[:5] and XClass(*r.x[:5]) == r.x


def test_classes_do_not_repeat_as_tuples():
    y, x = YClass((1, 0, -1, 0)), parse_xclass("(3; 1 10; 1 10; 1 10)")
    assert 2 * y == YClass((2, 0, -2, 0))
    for product in (lambda: y * 2, lambda: x * 2, lambda: 2 * x):
        with pytest.raises(TypeError):
            product()


_X, _Y = parse_xclass("(3; 1 10; 1 10; 1 10)"), YClass((1, 0, -1, 0))


@pytest.mark.parametrize("cls, other", [(_X, (1,)), (_Y, (1,)), (_X, _Y), (_Y, _X)])
def test_classes_combine_only_with_their_own_type(cls, other):
    # a tuple on either side of + would concatenate, or reach a missing field
    for total in (lambda: other + cls, lambda: cls + other, lambda: cls - other):
        with pytest.raises(TypeError, match="combines only with"):
            total()


def test_validating_types_keep_their_checks():
    with pytest.raises(ValueError, match="torsion mask 64 is not a 6-bit mask"):
        XClass(0, 0, 0, 0, 64)
    with pytest.raises(ValueError, match="unknown fibre kind 'generic'"):
        FiberContext("generic")
    assert repr(XClass(1, 0, 0, 0, 3)) == "XClass(nh=1, n1=0, n2=0, n3=0, mask=3, ns=())"
    assert repr(SMOOTH) == "FiberContext(kind='smooth')"


def test_make_and_replace_keep_the_checks():
    x = XClass(3, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="torsion mask 64 is not a 6-bit mask"):
        x._replace(mask=64)
    with pytest.raises(ValueError, match="torsion mask 64 is not a 6-bit mask"):
        XClass._make((3, 1, 1, 1, 64))
    with pytest.raises(ValueError, match="unknown fibre kind 'foo'"):
        FiberContext._make(("foo",))
    with pytest.raises(ValueError, match="unknown fibre kind 'foo'"):
        SMOOTH._replace(kind="foo")
    assert x._replace(mask=5) == XClass(3, 1, 1, 1, 5)
    assert type(x._replace(mask=5)) is XClass
    assert SMOOTH._replace(kind="degenerate") == FiberContext._make(("degenerate",))
