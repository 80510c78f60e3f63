"""The brute-force multiset oracle, and the oracle sweep that reads it."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charrank import _dispatch, oracles
from charrank.identities import verify_sweep
from charrank.report import CheckFailure


def nested_count(values, size, top):
    """Multisets of ``size`` items from ``values`` by their sum, for sums
    0..top: every multiplicity of each value in turn, no sum pruned."""
    counts = [0] * (top + 1)

    def place(i, left, total):
        if left == 0:
            if total <= top:
                counts[total] += 1
        elif i < len(values):
            for k in range(left + 1):  # k copies of values[i]
                place(i + 1, left - k, total + k * values[i])

    place(0, size, 0)
    return counts


@given(st.sets(st.integers(0, 15), max_size=5), st.integers(0, 12), st.integers(0, 30))
def test_multiset_weights_is_the_nested_loop_count(values, size, top):
    values = sorted(values)
    assert oracles.multiset_weights(values, size, top) == nested_count(values, size, top)


@pytest.mark.parametrize("values, size, top", [([-1, 2], 2, 5), ([1], -1, 5), ([1], 2, -1)])
def test_multiset_weights_refuses_a_negative_argument(values, size, top):
    with pytest.raises(ValueError, match="nonnegative integer"):
        oracles.multiset_weights(values, size, top)


def test_oracle_sweep_lists_no_multiset_longer_than_its_top_weight(monkeypatch):
    # 400 parts never fit below weight 10: boxes list 10 values padded with
    # zeros, and sets of 400 members list nothing
    longest = []

    def listing(values, size):
        for multiset in combinations_with_replacement(values, size):
            longest.append(len(multiset))
            yield multiset

    monkeypatch.setattr(oracles, "combinations_with_replacement", listing)
    report = verify_sweep("oracle", {"max_part": 2, "max_parts": 400, "max_weight": 10})
    assert report.passed
    assert report.checked == (3 + 3) * 401 * 11  # (boxes + part sets) x sizes x weights
    assert max(longest) == 10


def test_oracle_sweep_records_each_wrong_weight_in_order(monkeypatch):
    # a cell whose counts differ is compared weight by weight, so the
    # failures are those of one comparison per weight, in grid order
    true_count = _dispatch.box_count

    def off_at_three(a, b, c):
        return true_count(a, b, c) + (c == 3)

    monkeypatch.setattr(_dispatch, "box_count", off_at_three)
    report = verify_sweep("oracle", {"max_part": 2, "max_parts": 2, "max_weight": 4})
    assert report.checked == (3 * 3 + 3 * 3) * 5
    assert report.failures == [
        CheckFailure(
            (("subject", "box"), ("max_part", a), ("max_parts", b), ("weight", 3)),
            true_count(a, b, 3) + 1,
            true_count(a, b, 3),
        )
        for a in range(3)
        for b in range(3)
    ]
