"""The contract of the six value classes: construction by position and by
keyword, equality and hashing by field, repr, immutability, copying,
pickling and positional pattern matching."""

import copy
import pickle

import pytest

from charrank.bounds import UNBOUNDED, BundleProfile
from charrank.grassmannian import PoincareTable, poincare
from charrank.partitions import Partition, PartsSet
from charrank.report import CheckFailure, Identity, VerificationReport

# (build, field names, field values, repr, build with one field changed)
CASES = {
    "Partition": (
        lambda: Partition([1, 3, 2]),
        ("parts",),
        ((3, 2, 1),),
        "Partition([3, 2, 1])",
        lambda: Partition([3, 3]),
    ),
    "PartsSet": (
        lambda: PartsSet([2, 1, 2]),
        ("members",),
        ((1, 2),),
        "PartsSet([1, 2])",
        lambda: PartsSet([1, 3]),
    ),
    "BundleProfile": (
        lambda: BundleProfile(UNBOUNDED, [2, 1], UNBOUNDED),
        ("dim_x", "s_set", "t"),
        (UNBOUNDED, PartsSet([1, 2]), UNBOUNDED),
        "BundleProfile(dim_x=inf, s_set=PartsSet([1, 2]), t=inf)",
        lambda: BundleProfile(UNBOUNDED, [1, 2], 7),
    ),
    "PoincareTable": (
        lambda: poincare(4, 2),
        ("n", "k", "betti"),
        (4, 2, (1, 1, 2, 1, 1)),
        "PoincareTable(n=4, k=2, betti=(1, 1, 2, 1, 1))",
        lambda: PoincareTable(4, 2, (1, 1, 2, 1)),
    ),
    "CheckFailure": (
        lambda: CheckFailure((1, 2), "3", "4"),
        ("params", "lhs", "rhs"),
        ((1, 2), "3", "4"),
        "CheckFailure(params=(1, 2), lhs='3', rhs='4')",
        lambda: CheckFailure((1, 2), "3", "5"),
    ),
    "VerificationReport": (
        lambda: VerificationReport(Identity.EQ4, {"max_j": 3}, 3),
        ("identity_id", "swept_ranges", "checked", "failures"),
        (Identity.EQ4, {"max_j": 3}, 3, []),
        "VerificationReport(identity_id=<Identity.EQ4: 'eq4'>, "
        "swept_ranges={'max_j': 3}, checked=3, failures=[])",
        lambda: VerificationReport(Identity.EQ4, {"max_j": 3}, 4),
    ),
}
FROZEN = [name for name in CASES if name != "VerificationReport"]


@pytest.mark.parametrize("name", CASES)
def test_fields_are_the_match_args_in_constructor_order(name):
    build, names, values, _, _ = CASES[name]
    made = build()
    assert type(made).__match_args__ == names
    assert tuple(getattr(made, field) for field in names) == values
    assert type(made)(*values) == made
    assert type(made)(**dict(zip(names, values))) == made


@pytest.mark.parametrize("name", CASES)
def test_equal_by_field_to_the_same_class_only(name):
    build, _, values, _, changed = CASES[name]
    assert build() == build()
    assert build() != changed()
    assert not build() != build()
    assert build() != values
    assert values != build()
    for other in CASES:
        if other != name:
            assert build() != CASES[other][0]()


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_hash_is_that_of_the_field_tuple(name):
    build, _, values, _, changed = CASES[name]
    assert hash(build()) == hash(build()) == hash(values)
    assert len({build(), build(), changed()}) == 2


def test_a_report_is_unhashable():
    report = CASES["VerificationReport"][0]()
    assert VerificationReport.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    build, _, _, text, _ = CASES[name]
    assert repr(build()) == text


def test_default_fields():
    assert Partition() == Partition(()) == Partition(parts=[])
    assert repr(Partition()) == "Partition([])"
    first = VerificationReport(Identity.EQ3, {})
    second = VerificationReport(identity_id=Identity.EQ3, swept_ranges={})
    assert (first.checked, first.failures) == (0, [])
    assert first == second
    assert first.failures is not second.failures


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_instances_refuse_assignment_and_deletion(name):
    build, names, values, _, _ = CASES[name]
    made = build()
    for field in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(made, field, 0)
        with pytest.raises(AttributeError):
            delattr(made, field)
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(made, names[0])
    assert tuple(getattr(made, field) for field in names) == values


def test_a_report_is_mutable():
    report = VerificationReport(Identity.EQ3, {})
    report.checked += 2
    report.compare((1,), 1, 2)
    assert report.checked == 2
    assert report.failures == [CheckFailure((1,), 1, 2)]
    assert report.status == "fail"


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_compare_equal(name):
    build, names, _, text, _ = CASES[name]
    made = build()
    for twin in (
        copy.copy(made),
        copy.deepcopy(made),
        pickle.loads(pickle.dumps(made)),
        pickle.loads(pickle.dumps(made, protocol=0)),
    ):
        assert type(twin) is type(made)
        assert twin == made
        assert repr(twin) == text
        if name in FROZEN:
            assert hash(twin) == hash(made)
            with pytest.raises(AttributeError):
                setattr(twin, names[0], 0)


def test_positional_match_patterns():
    def shape(value):
        match value:
            case Partition((largest, *_)):
                return ("partition", largest)
            case PartsSet((least, *_)):
                return ("parts", least)
            case BundleProfile(dim, PartsSet(members), _):
                return ("profile", dim, members)
            case PoincareTable(n, k, (1, *_)):
                return ("table", n, k)
            case CheckFailure(params, lhs, rhs):
                return ("failure", params, lhs, rhs)
            case VerificationReport(identity, _, checked, []):
                return ("report", identity, checked)
        return None

    assert shape(Partition([2, 5])) == ("partition", 5)
    assert shape(PartsSet([4, 3])) == ("parts", 3)
    assert shape(BundleProfile(9, [1, 2], 4)) == ("profile", 9, (1, 2))
    assert shape(poincare(5, 2)) == ("table", 5, 2)
    assert shape(CheckFailure((1,), "a", "b")) == ("failure", (1,), "a", "b")
    assert shape(VerificationReport(Identity.EQ5, {}, 7)) == ("report", Identity.EQ5, 7)
    assert shape((1, 2)) is None
