import pytest
from hypothesis import given
from hypothesis import strategies as st

from charrank import bijection
from charrank.bijection import expand, reduce, verify_bijection
from charrank.errors import CapExceeded, PreconditionViolation
from charrank.identities import verify_sweep
from charrank.partitions import (
    Partition,
    count_set_at_most,
    count_set_exact,
    enumerate_set_exact,
)


class TestReduce:
    def test_anchor(self):
        assert reduce(Partition([4, 2, 2]), 3, 2, 4) == Partition([2])

    def test_all_minimal_parts_collapse(self):
        assert reduce(Partition([3, 3, 3, 3]), 4, 3, 7) == Partition([])

    def test_second_anchor(self):
        assert reduce(Partition([3, 2]), 2, 2, 3) == Partition([1])

    def test_accepts_raw_parts(self):
        assert reduce([4, 2, 2], 3, 2, 4) == Partition([2])

    def test_wrong_part_count(self):
        with pytest.raises(PreconditionViolation):
            reduce(Partition([4, 2]), 3, 2, 4)

    def test_part_out_of_range(self):
        with pytest.raises(PreconditionViolation):
            reduce(Partition([5, 2, 2]), 3, 2, 4)
        with pytest.raises(PreconditionViolation):
            reduce(Partition([4, 2, 1]), 3, 2, 4)

    def test_bad_interval(self):
        with pytest.raises(PreconditionViolation):
            reduce(Partition([1]), 1, 2, 1)
        with pytest.raises(PreconditionViolation):
            reduce(Partition([1]), 0, 1, 1)


class TestExpand:
    def test_anchor(self):
        assert expand(Partition([2]), 3, 2) == Partition([4, 2, 2])

    def test_empty_grows_to_all_minimal(self):
        assert expand(Partition([]), 4, 3) == Partition([3, 3, 3, 3])

    def test_second_anchor(self):
        assert expand(Partition([1]), 2, 2) == Partition([3, 2])

    def test_too_many_parts(self):
        with pytest.raises(PreconditionViolation):
            expand(Partition([1, 1, 1]), 2, 2)


class TestVerifyBijection:
    def test_anchor_pass_with_cardinality_two(self):
        report = verify_bijection(2, 4, 8, 3)
        assert report.passed
        assert report.checked == 1
        assert len(enumerate_set_exact({2, 3, 4}, 3, 8)) == 2

    def test_exact_multiple_of_minimum(self):
        for nu, x in [(1, 1), (2, 3), (5, 4)]:
            report = verify_bijection(nu, nu + 2, nu * x, x)
            assert report.passed
            assert len(enumerate_set_exact(range(nu, nu + 3), x, nu * x)) == 1

    def test_empty_domain_passes(self):
        report = verify_bijection(2, 3, 3, 2)
        assert report.passed
        assert enumerate_set_exact({2, 3}, 2, 3) == []

    def test_degenerate_single_value_interval(self):
        assert verify_bijection(3, 3, 9, 3).passed
        assert verify_bijection(3, 3, 8, 3).passed  # both sides empty

    def test_rejects_bad_parameters(self):
        with pytest.raises(PreconditionViolation):
            verify_bijection(0, 2, 4, 1)
        with pytest.raises(PreconditionViolation):
            verify_bijection(3, 2, 4, 1)
        with pytest.raises(PreconditionViolation):
            verify_bijection(1, 2, -1, 1)
        with pytest.raises(PreconditionViolation):
            verify_bijection(1, 2, 4, 0)


@given(
    st.integers(1, 6).flatmap(
        lambda nu: st.tuples(
            st.just(nu),
            st.integers(nu, 8),
            st.integers(0, 24),
            st.integers(1, 6),
        )
    )
)
def test_round_trip_property(params):
    nu, mu, j, x = params
    for p in enumerate_set_exact(range(nu, mu + 1), x, j):
        q = reduce(p, x, nu, mu)
        assert q.weight == p.weight - nu * x
        assert len(q) <= x
        assert all(1 <= v <= mu - nu for v in q)
        assert expand(q, x, nu) == p


@given(
    st.integers(1, 5).flatmap(
        lambda nu: st.tuples(st.just(nu), st.integers(nu, 8), st.integers(0, 20), st.integers(1, 6))
    )
)
def test_cardinality_transport(params):
    nu, mu, j, x = params
    lhs = count_set_exact(range(nu, mu + 1), x, j)
    if j < nu * x:
        assert lhs == 0
    else:
        rhs = count_set_at_most(range(1, mu - nu + 1), x, j - nu * x)
        assert lhs == rhs


def test_reduce_expand_other_direction():
    nu, mu, x = 2, 5, 4
    for weight in range(0, 13):
        for used in range(x + 1):
            for q in enumerate_set_exact(range(1, mu - nu + 1), used, weight):
                p = expand(q, x, nu)
                assert reduce(p, x, nu, mu) == q


def _instances(max_mu, max_x, max_j):
    """The bijection sweep's (nu, mu, j, x) instances, in sweep order."""
    for mu in range(1, max_mu + 1):
        for nu in range(1, mu + 1):
            for x in range(1, max_x + 1):
                for j in range(max_j + 1):
                    yield nu, mu, j, x


def _inject_defects(monkeypatch):
    """Add (5, 2, 1) to the parts {2, 3, 4}, 3 parts, weight 8, (9,) to
    the 2 x 3 box at weight 2, and the 4-part (1, 1, 1, 1) to the 1 x 3
    box at weight 4."""
    true_set_exact, true_box = bijection._set_exact_parts, bijection._box_parts

    def set_exact(members, num_parts, lo, hi, cap):
        found = true_set_exact(members, num_parts, lo, hi, cap)
        if (members, num_parts) == ((2, 3, 4), 3) and lo <= 8 <= hi:
            found[8 - lo].append((5, 2, 1))
        return found

    def box(max_part, max_parts, lo, hi, cap):
        found = true_box(max_part, max_parts, lo, hi, cap)
        if (max_part, max_parts) == (2, 3) and lo <= 2 <= hi:
            found[2 - lo].append((9,))
        if (max_part, max_parts) == (1, 3) and lo <= 4 <= hi:
            found[4 - lo].append((1, 1, 1, 1))
        return found

    monkeypatch.setattr(bijection, "_set_exact_parts", set_exact)
    monkeypatch.setattr(bijection, "_box_parts", box)


@pytest.mark.parametrize("defective", [False, True])
def test_single_weight_reports_match_the_sweep(monkeypatch, defective):
    # the sweep checks each cell over a window of weights; verify_bijection
    # checks one weight, and together they must say the same
    if defective:
        _inject_defects(monkeypatch)
    grid = {"max_mu": 4, "max_x": 3, "max_j": 8}
    sweep = verify_sweep("bijection", grid)
    reports = [verify_bijection(*instance) for instance in _instances(**grid)]
    assert [r.checked for r in reports] == [1] * 270
    assert sweep.checked == 270
    assert sweep.failures == [f for r in reports for f in r.failures]
    checks = [dict(failure.params)["check"] for failure in sweep.failures]
    # at {1, 2}, 3 parts and weight 7 expand refuses the 4-part tuple; at
    # {2, 3, 4} and weight 8 both sides gain one element, so the
    # cardinalities agree there
    expected = [
        "cardinality",
        "precondition",
        "cardinality",
        "preimage membership",
        "precondition",
        "preimage membership",
    ]
    assert checks == (expected if defective else [])
    if defective:
        assert sweep.failures[1].lhs == "expected at most 3 parts, got 4"


def _rendered(failures):
    return [
        ", ".join(f"{k}={v}" for k, v in failure.params) + f": {failure.lhs} != {failure.rhs}"
        for failure in failures
    ]


def _reduce_keeps_a_zero(monkeypatch):
    true_reduce = bijection._reduce

    def corrupted(parts, num_parts, min_part, max_part):
        q = true_reduce(parts, num_parts, min_part, max_part)
        return q + (0,) if len(q) < len(parts) else q

    monkeypatch.setattr(bijection, "_reduce", corrupted)


def _expand_pads_one_short(monkeypatch):
    true_expand = bijection._expand

    def corrupted(parts, num_parts, min_part):
        p = true_expand(parts, num_parts, min_part)
        return p[:-1] if len(parts) < num_parts else p

    monkeypatch.setattr(bijection, "_expand", corrupted)


# The failures that the element-by-element sweep reported for each
# corrupted map over the grid of the test below, as "params: lhs != rhs";
# each row is (min_part, max_part, weight, num_parts, the parts involved).
REDUCE_KEEPS_A_ZERO = [
    f"min_part={nu}, max_part={mu}, weight={w}, num_parts={x}, check={check}"
    for nu, mu, w, x, q in [
        (1, 1, 1, 1, []),
        (1, 1, 2, 2, []),
        (1, 2, 1, 1, []),
        (1, 2, 2, 2, []),
        (1, 2, 3, 2, [1]),
        (2, 2, 2, 1, []),
        (2, 2, 4, 2, []),
    ]
    for check in [
        f"image membership: Partition({q + [0]}) != reduced side",
        f"round trip, q=Partition({q}): Partition({q + [0]}) != Partition({q})",
    ]
]
EXPAND_PADS_ONE_SHORT = [
    f"min_part={nu}, max_part={mu}, weight={w}, num_parts={x}, check={check}"
    for nu, mu, w, x, p, q in [
        (1, 1, 1, 1, [1], []),
        (1, 1, 2, 2, [1, 1], []),
        (1, 2, 1, 1, [1], []),
        (1, 2, 2, 2, [1, 1], []),
        (1, 2, 3, 2, [2, 1], [1]),
        (2, 2, 2, 1, [2], []),
        (2, 2, 4, 2, [2, 2], []),
    ]
    for check in [
        f"round trip, p=Partition({p}): Partition({p[:-1]}) != Partition({p})",
        f"preimage membership, q=Partition({q}): Partition({p[:-1]}) != original side",
    ]
]


@pytest.mark.parametrize(
    "corrupt,expected",
    [
        pytest.param(_reduce_keeps_a_zero, REDUCE_KEEPS_A_ZERO, id="reduce keeps a zero"),
        pytest.param(_expand_pads_one_short, EXPAND_PADS_ONE_SHORT, id="expand pads one short"),
    ],
)
def test_a_corrupted_map_reports_every_failure(monkeypatch, corrupt, expected):
    # a bucket that the two maps do not carry onto each other in order
    # falls back to the element loop, which reports what it always did
    corrupt(monkeypatch)
    grid = {"max_mu": 2, "max_x": 2, "max_j": 4}
    sweep = verify_sweep("bijection", grid)
    reports = [verify_bijection(*instance) for instance in _instances(**grid)]
    assert sweep.checked == 30
    assert sweep.failures == [f for r in reports for f in r.failures]
    assert _rendered(sweep.failures) == expected


def test_a_refusal_on_the_fast_path_is_not_swallowed(monkeypatch):
    # expand refuses (1,), the image of (2, 1), as the second map over a
    # bucket whose first map matched.  The fast path hands the bucket to
    # the element loop, which records the refusal from either side as a
    # precondition failure, as the docstring promises, instead of raising.
    true_expand = bijection._expand

    def refusing(parts, num_parts, min_part):
        if parts == (1,):
            raise PreconditionViolation("refused")
        return true_expand(parts, num_parts, min_part)

    monkeypatch.setattr(bijection, "_expand", refusing)
    assert verify_bijection(1, 2, 2, 2).passed
    report = verify_bijection(1, 2, 3, 2)
    assert report.checked == 1
    cell = (("min_part", 1), ("max_part", 2), ("weight", 3), ("num_parts", 2))
    assert [(f.params, f.lhs, f.rhs) for f in report.failures] == [
        (cell + (("check", "precondition"), ("p", Partition([2, 1]))), "refused", "satisfied"),
        (cell + (("check", "precondition"), ("q", Partition([1]))), "refused", "satisfied"),
    ]


def test_empty_buckets_on_both_sides_are_checked():
    # parts {3}, 3 parts: only weight 9 has a partition, and its reduced
    # side, the 0 x 3 box, holds only the empty partition
    report = verify_sweep("bijection", {"max_mu": 3, "max_x": 3, "max_j": 8})
    assert report.passed
    assert report.checked == 6 * 3 * 9  # (nu, mu) pairs x parts x weights
    single = [verify_bijection(3, 3, weight, 3) for weight in range(9)]
    assert [r.checked for r in single] == [1] * 9
    assert all(r.passed for r in single)


def test_sweep_cap_error_is_the_first_refused_instance(monkeypatch):
    grid = {"max_mu": 9, "max_x": 8, "max_j": 10}
    expected = None
    for instance in _instances(**grid):
        try:
            verify_bijection(*instance)
        except CapExceeded as exc:
            expected = str(exc)
            break
    assert expected is not None
    windows = []
    true_set_exact = bijection._set_exact_parts

    def recorded(members, num_parts, lo, hi, cap):
        windows.append([(members[0], members[-1], num_parts), "returned"])
        try:
            return true_set_exact(members, num_parts, lo, hi, cap)
        except CapExceeded:
            windows[-1][1] = "raised"
            raise

    monkeypatch.setattr(bijection, "_set_exact_parts", recorded)
    with pytest.raises(CapExceeded) as caught:
        verify_sweep("bijection", grid)
    assert str(caught.value) == expected
    # the refusal comes from the window of the refused cell, parts {1..9}
    # with 8 of them, which checks the cap before it enumerates anything
    assert windows[-1] == [(1, 9, 8), "raised"]


@pytest.mark.parametrize("cap", [None, -1, True])
def test_cap_must_be_a_nonnegative_int(cap):
    with pytest.raises(ValueError, match="^cap must be an integer >= 0"):
        verify_bijection(1, 2, 3, 1, cap=cap)
