from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import partition as sympy_partition

from charrank import _kernels_py, partitions
from charrank._kernels_py import SERIES_CUT
from charrank.errors import CapExceeded, TableTooLarge
from charrank.identities import default_grid
from charrank.oracles import pentagonal_partition_table
from charrank.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    PartsSet,
    _box_parts,
    _set_exact_parts,
    count_box,
    count_set_any,
    count_set_at_most,
    count_set_exact,
    count_total,
    enumerate_box,
    enumerate_set_exact,
)

from _backends import SEAM, serve
from _brute import box as brute_box, set_exact as brute_set_exact


class TestPartition:
    def test_canonicalizes(self):
        assert Partition([2, 4, 2]).parts == (4, 2, 2)

    def test_empty(self):
        p = Partition([])
        assert p.parts == ()
        assert p.weight == 0
        assert len(p) == 0

    def test_weight_and_iter(self):
        p = Partition([3, 1, 2])
        assert p.weight == 6
        assert list(p) == [3, 2, 1]

    def test_eq_and_hash(self):
        assert Partition([2, 1]) == Partition([1, 2])
        assert len({Partition([2, 1]), Partition([1, 2])}) == 1
        assert Partition([2]) != Partition([1, 1])
        assert Partition([1]) != (1,)

    @pytest.mark.parametrize("bad", [[0], [-1], [1.5], ["2"], [True]])
    def test_rejects_bad_parts(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_repr_roundtrips(self):
        p = Partition([4, 2, 2])
        assert eval(repr(p)) == p

    @pytest.mark.parametrize("name", ["parts", "other"])
    def test_is_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(Partition([1]), name, (2,))


class TestPartsSet:
    def test_orders_and_dedupes(self):
        s = PartsSet([4, 1, 4, 2])
        assert s.members == (1, 2, 4)
        assert s.least == 1
        assert s.greatest == 4

    def test_interval(self):
        assert PartsSet.interval(2, 5).members == (2, 3, 4, 5)
        with pytest.raises(ValueError):
            PartsSet.interval(3, 2)
        with pytest.raises(ValueError):
            PartsSet.interval(True, 3)

    def test_gapless(self):
        assert PartsSet([2, 3, 4]).is_gapless()
        assert not PartsSet([1, 3]).is_gapless()
        assert PartsSet([5]).is_gapless()

    def test_truncated(self):
        assert PartsSet([1, 2, 4]).truncated(3) == (1, 2)
        assert PartsSet([3]).truncated(2) == ()

    def test_rejects_empty_and_bad(self):
        with pytest.raises(ValueError):
            PartsSet([])
        with pytest.raises(ValueError):
            PartsSet([0, 1])
        with pytest.raises(ValueError):
            PartsSet([1, "a"])

    def test_container_protocol(self):
        s = PartsSet([2, 3])
        assert 2 in s and 5 not in s
        assert len(s) == 2
        assert PartsSet([3, 2]) == s

    @pytest.mark.parametrize("name", ["members", "other"])
    def test_is_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(PartsSet([1]), name, (2,))


class TestCountBox:
    def test_anchors(self):
        assert count_box(2, 2, 2) == 2  # {2, 1+1}
        assert count_box(3, 2, 7) == 0  # exceeds the box
        assert count_box(5, 0, 0) == 1
        assert count_box(0, 5, 0) == 1
        assert count_box(0, 0, 1) == 0

    def test_matches_brute_force_exhaustively(self):
        for a in range(7):
            for b in range(7):
                for c in range(a * b + 2):
                    assert count_box(a, b, c) == brute_box(a, b, c), (a, b, c)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 144))
    def test_conjugation_symmetry(self, a, b, c):
        assert count_box(a, b, c) == count_box(b, a, c)

    @given(st.integers(0, 12), st.integers(0, 12), st.data())
    def test_box_complementation(self, a, b, data):
        c = data.draw(st.integers(0, a * b))
        assert count_box(a, b, c) == count_box(a, b, a * b - c)

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 60))
    def test_peel_off_largest_part_recurrence(self, a, b, c):
        expected = count_box(a - 1, b, c)
        if c >= a:
            expected += count_box(a, b - 1, c - a)
        assert count_box(a, b, c) == expected

    def test_total_is_big_enough_box(self):
        for c in range(41):
            assert count_total(c) == count_box(c, c, c)

    def test_rejects_bad_arguments(self):
        for bad in [(-1, 2, 2), (2, -1, 2), (2, 2, -1), (1.5, 2, 2), ("2", 2, 2)]:
            with pytest.raises(ValueError):
                count_box(*bad)


class TestCountSet:
    def test_exact_anchors(self):
        assert count_set_exact({1, 2}, 2, 3) == 1  # only 2+1
        assert count_set_exact({1, 2, 3}, 0, 0) == 1  # the empty partition
        assert count_set_exact({2, 4}, 3, 7) == 0  # parity
        assert count_set_exact({2, 3, 4}, 3, 8) == 2

    def test_at_most_anchors(self):
        assert count_set_at_most(PartsSet.interval(1, 9), 4, 0) == 1
        assert count_set_at_most({1, 2}, 2, 2) == 2  # {2, 1+1}
        for a in range(1, 7):
            for b in range(7):
                for c in range(37):
                    assert count_set_at_most(range(1, a + 1), b, c) == count_box(a, b, c)

    def test_any_anchors(self):
        assert count_set_any(range(1, 13), 12) == count_total(12)
        assert count_set_any({2}, 7) == 0
        assert count_set_any({1, 2}, 4) == 3
        assert count_set_any({5, 7}, 0) == 1

    def test_any_reads_the_set_any_count_without_the_at_most_route(self, monkeypatch):
        # weight parts never bind, so the at-most count at that bound is the
        # same entry; count_set_any reads it without going through it
        cases = [
            (members, w)
            for size in range(7)
            for members in combinations(range(1, 7), size)
            for w in range(31)
        ]
        expected = [count_set_at_most(members, w, w) for members, w in cases]

        def no_route(*args):
            raise AssertionError("count_set_at_most was called")

        monkeypatch.setattr(partitions, "count_set_at_most", no_route)
        assert [count_set_any(members, w) for members, w in cases] == expected

    def test_exact_matches_brute_force(self):
        members = (1, 3, 4)
        for b in range(7):
            for c in range(20):
                assert count_set_exact(members, b, c) == brute_set_exact(members, b, c)

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=5),
        st.integers(0, 8),
        st.integers(0, 40),
    )
    def test_exact_matches_brute_force_random(self, members, b, c):
        assert count_set_exact(members, b, c) == brute_set_exact(tuple(members), b, c)

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=5),
        st.integers(0, 8),
        st.sampled_from(["least", "greatest"]),
        st.integers(-1, 1),
    )
    def test_exact_at_the_edges_of_the_reachable_window(self, members, b, edge, step):
        # b parts weigh from b * least to b * greatest; outside, the count is 0
        parts = tuple(sorted(members))
        c = b * (parts[0] if edge == "least" else parts[-1]) + step
        if c >= 0:
            assert count_set_exact(parts, b, c) == brute_set_exact(parts, b, c)
            assert count_set_exact(parts, 0, c) == (c == 0)
            assert count_set_exact(parts, b, 0) == (b == 0)

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=5),
        st.integers(0, 10),
        st.integers(0, 30),
    )
    def test_at_most_aggregates_exact(self, members, b, c):
        total = sum(count_set_exact(members, s, c) for s in range(b + 1))
        assert count_set_at_most(members, b, c) == total

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=5),
        st.integers(-1, 1),
        st.integers(0, 40),
    )
    def test_at_most_agrees_on_both_sides_of_the_route_boundary(self, members, step, c):
        # from c // least parts on, the bound never binds and the count
        # leaves the 2-D set-exact table for the 1-D set-any table
        parts = tuple(sorted(members))
        b = c // parts[0] + step
        if b >= 0:
            expected = sum(brute_set_exact(parts, s, c) for s in range(b + 1))
            assert count_set_at_most(parts, b, c) == expected

    def test_table_too_large_is_refused_before_it_is_built(self, monkeypatch):
        # the compiled kernels hand these weights to the pure ones, which guard
        def no_table(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(_kernels_py, "_part_rows", no_table)
        with pytest.raises(TableTooLarge):
            count_set_exact(range(1, 10**5), 10**5, 10**6)
        with pytest.raises(TableTooLarge):
            count_set_at_most((1, 2), 10**5, 10**6)  # the bound binds: 2-D route

    def test_table_limit_is_on_the_cells(self, monkeypatch):
        # 4 rows (0..3 parts) of 8 weights fill exactly 32 cells; the pure
        # kernels serve, so the compiled fast path cannot skip the guard
        serve(monkeypatch, _kernels_py)
        monkeypatch.setattr(_kernels_py, "MAX_TABLE_CELLS", 32)
        assert count_set_exact((2, 3), 3, 7) == brute_set_exact((2, 3), 3, 7)
        with pytest.raises(TableTooLarge):
            count_set_exact((2, 3), 3, 8)
        # the 1-D route counts its row's weights times its parts: 16 x 2
        assert count_set_any((2, 3), 15) == 3
        with pytest.raises(TableTooLarge):
            count_set_any((2, 3), 16)

    def test_zero_parts_convention(self):
        assert count_set_exact({3, 5}, 0, 0) == 1
        assert count_set_exact({3, 5}, 0, 4) == 0

    def test_num_parts_beyond_weight(self):
        assert count_set_exact({1, 2}, 9, 5) == 0

    def test_empty_part_set(self):
        # no parts to draw from: only the empty partition, at weight 0
        assert count_set_exact((), 0, 0) == 1
        assert count_set_exact((), 0, 4) == 0
        assert count_set_exact((), 1, 3) == 0
        assert count_set_exact((), 2, 0) == 0
        assert count_set_at_most((), 4, 0) == 1
        assert count_set_at_most((), 4, 3) == 0
        assert count_set_any((), 0) == 1
        assert count_set_any((), 5) == 0

    def test_no_part_within_the_weight_builds_no_row(self, monkeypatch):
        # only the empty partition can count, so no row of the weights is
        # priced or built: the set counts answer in their guards or in
        # set_any_count, which the compiled backend hands every weight past
        # its word size; the set-exact call with no parts was once refused
        # as too large
        def no_row(*args):
            raise AssertionError("a row was priced or built")

        for name in ("_check_row", "_divide", "_part_rows", "_box_row"):
            monkeypatch.setattr(_kernels_py, name, no_row)
        for members in ((), (10**9,), (10**8 + 1, 10**9)):
            assert count_set_any(members, 10**8) == 0
            assert count_set_at_most(members, 5, 10**8) == 0
            assert count_set_exact(members, 1, 10**8) == 0
            assert count_set_any(members, 0) == 1
            assert count_set_at_most(members, 0, 0) == 1
        assert count_set_exact((), 0, 0) == 1

    def test_one_part_within_the_weight_builds_no_row(self, monkeypatch):
        # only num_parts copies of the least part can count, so no row is
        # priced or built; 10**8 threes were once refused as too large
        def no_row(*args):
            raise AssertionError("a row was priced or built")

        for name in ("_check_row", "_divide", "_part_rows", "_box_row"):
            monkeypatch.setattr(_kernels_py, name, no_row)
        for members in ((3,), (3, 3 * 10**8 + 1)):
            assert count_set_exact(members, 10**8, 3 * 10**8) == 1
            assert count_set_exact(members, 10**8, 3 * 10**8 - 1) == 0
            assert count_set_exact(members, 10**8 - 1, 3 * 10**8) == 0
            assert count_set_exact(members, 0, 3) == 0

    def test_accepts_parts_set_and_iterables(self):
        expected = count_set_exact((2, 3), 2, 5)
        assert count_set_exact(PartsSet([3, 2]), 2, 5) == expected
        assert count_set_exact([3, 2, 3], 2, 5) == expected
        assert count_set_exact({2, 3}, 2, 5) == expected

    def test_rejects_bad_part_values(self):
        with pytest.raises(ValueError):
            count_set_exact([0, 2], 1, 2)
        with pytest.raises(ValueError):
            count_set_any([-3], 2)


class TestCountTotal:
    def test_anchors(self):
        assert count_total(0) == 1
        assert count_total(5) == 7
        assert count_total(100) == 190569292

    @pytest.mark.parametrize("n", [1, 50, 200, SEAM - 1, SEAM, SEAM + 1, 450, 1000, 3000])
    def test_matches_sympy_across_word_size_boundary(self, n):
        # SEAM is the largest weight whose counts fit in a compiled word;
        # SEAM + 1 is the first that cannot, so this sweep crosses the
        # fast-path boundary.  1000 and 3000 run the big-integer split far
        # past it.
        assert count_total(n) == int(sympy_partition(n))

    def test_every_weight_to_5000_on_both_routes(self):
        # on pure the Durfee table up to SERIES_CUT, the Rademacher series
        # past it; compiled its word row up to SEAM, the pure route past it
        expected = pentagonal_partition_table(5000)
        assert [count_total(n) for n in range(5001)] == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_sympy_up_to_a_million(self, n):
        assert count_total(n) == int(sympy_partition(n))

    def test_routes_by_the_cut(self, monkeypatch):
        # the pure point query picks its route inside the kernel
        calls = []

        def no_series(n):
            calls.append(n)
            return -1

        monkeypatch.setattr(_kernels_py, "partition_number", no_series)
        serve(monkeypatch, _kernels_py)
        assert count_total(SERIES_CUT) == pentagonal_partition_table(SERIES_CUT)[-1]
        assert (count_total(SERIES_CUT + 1), calls) == (-1, [SERIES_CUT + 1])


class TestEnumeration:
    def test_box_anchors(self):
        assert [p.parts for p in enumerate_box(2, 2, 2)] == [(2,), (1, 1)]
        assert [p.parts for p in enumerate_box(4, 3, 0)] == [()]
        assert enumerate_box(1, 1, 2) == []

    def test_set_exact_anchors(self):
        got = [p.parts for p in enumerate_set_exact({2, 3, 4}, 3, 8)]
        assert got == [(4, 2, 2), (3, 3, 2)]
        assert [p.parts for p in enumerate_set_exact({5, 6}, 0, 0)] == [()]
        assert enumerate_set_exact({2}, 2, 5) == []

    def test_box_entries_satisfy_invariants(self):
        for a in range(5):
            for b in range(5):
                for c in range(a * b + 1):
                    found = enumerate_box(a, b, c)
                    assert len(found) == len(set(found)), "duplicates"
                    assert len(found) == count_box(a, b, c)
                    for p in found:
                        assert p.weight == c
                        assert len(p) <= b
                        assert all(v <= a for v in p)

    def test_set_exact_entries_satisfy_invariants(self):
        members = (1, 2, 5)
        for b in range(6):
            for c in range(16):
                found = enumerate_set_exact(members, b, c)
                assert len(found) == len(set(found))
                assert len(found) == count_set_exact(members, b, c)
                for p in found:
                    assert p.weight == c
                    assert len(p) == b
                    assert all(v in members for v in p)

    def test_lexicographically_decreasing(self):
        found = [p.parts for p in enumerate_box(4, 4, 8)]
        assert found == sorted(found, reverse=True)
        found = [p.parts for p in enumerate_set_exact({1, 2, 3}, 4, 9)]
        assert found == sorted(found, reverse=True)

    # Weight windows, among them ones that start above 0.  Each bucket of a
    # window is checked against the brute-force count of its own weight,
    # which shares nothing with the descent.
    WINDOWS = ((0, 24), (5, 24), (9, 17))

    @staticmethod
    def _assert_buckets(buckets, lo, hi, count, valid):
        assert len(buckets) == hi - lo + 1
        for weight, bucket in enumerate(buckets, lo):
            assert len(bucket) == count(weight), weight
            for parts in bucket:
                assert sum(parts) == weight
                assert all(a >= b for a, b in zip(parts, parts[1:]))
                assert valid(parts), parts
            # strictly decreasing, so no tuple is listed twice
            assert all(a > b for a, b in zip(bucket, bucket[1:])), weight

    def test_box_window_matches_per_weight(self):
        for a in range(7):  # a == 0 and b == 0 hold only the empty partition
            for b in range(7):
                for lo, hi in self.WINDOWS:
                    self._assert_buckets(
                        _box_parts(a, b, lo, hi),
                        lo,
                        hi,
                        lambda w: brute_box(a, b, w),
                        lambda parts: len(parts) <= b and all(1 <= v <= a for v in parts),
                    )

    def test_set_exact_window_matches_per_weight(self):
        for size in range(7):  # size 0: no members
            for members in combinations(range(1, 7), size):
                for b in range(7):  # b == 0: only the empty partition, at 0
                    for lo, hi in self.WINDOWS:
                        self._assert_buckets(
                            _set_exact_parts(members, b, lo, hi),
                            lo,
                            hi,
                            lambda w: brute_set_exact(members, b, w),
                            lambda parts: len(parts) == b and set(parts) <= set(members),
                        )

    def test_windows_of_the_oracle_grid_have_the_counted_lengths(self):
        # the oracle sweep's default grid, on which the sweep compared these
        # buckets with the public counts before it counted multisets instead
        grid = default_grid("oracle")
        weights = range(grid["max_weight"] + 1)
        for a in range(grid["max_part"] + 1):
            for b in range(grid["max_parts"] + 1):
                found = _box_parts(a, b, 0, weights[-1])
                assert [len(bucket) for bucket in found] == [count_box(a, b, c) for c in weights]
        values = range(1, grid["max_part"] + 1)
        for size in values:
            for members in combinations(values, size):
                for b in range(grid["max_parts"] + 1):
                    found = _set_exact_parts(members, b, 0, weights[-1])
                    assert [len(bucket) for bucket in found] == [
                        count_set_exact(members, b, c) for c in weights
                    ]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_box(9, 9, 40)
        # a large nominal box is fine when the weight keeps it small
        assert enumerate_box(100, 100, 3) is not None
        # and the cap can be raised explicitly
        assert len(enumerate_box(9, 9, 40, cap=81)) == count_box(9, 9, 40)
        with pytest.raises(CapExceeded):
            enumerate_set_exact(range(1, 13), 8, 30)
        assert DEFAULT_ENUMERATION_CAP == 64

    def test_set_exact_empty_cases(self):
        assert enumerate_set_exact((), 0, 0) == [Partition([])]
        assert enumerate_set_exact((), 2, 5) == []
        # parts that outweigh the weight give nothing, and no cap check
        assert enumerate_set_exact(range(1, 100), 200, 100) == []
        with pytest.raises(CapExceeded, match=r"^enumeration box 99x50 exceeds the cap of 64"):
            enumerate_set_exact(range(1, 100), 50, 100)

    def test_window_refuses_its_first_capped_weight(self):
        with pytest.raises(CapExceeded) as single:
            enumerate_box(9, 9, 9)
        with pytest.raises(CapExceeded, match="9x9") as window:
            _box_parts(9, 9, 0, 40, 64)
        assert str(window.value) == str(single.value)
        with pytest.raises(CapExceeded) as single:
            enumerate_set_exact(range(1, 13), 8, 9)
        with pytest.raises(CapExceeded, match="9x8") as window:
            _set_exact_parts(tuple(range(1, 13)), 8, 0, 30, 64)
        assert str(window.value) == str(single.value)

    @pytest.mark.parametrize("cap", [None, -1, True, 2.0, "64"])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        for call in (
            lambda: enumerate_box(2, 2, 2, cap=cap),
            lambda: enumerate_box(3, 3, 0, cap=cap),
            lambda: enumerate_set_exact({1, 2}, 2, 3, cap=cap),
            lambda: enumerate_set_exact((), 0, 0, cap=cap),
            lambda: enumerate_set_exact(range(1, 100), 200, 100, cap=cap),
        ):
            with pytest.raises(ValueError, match="^cap must be an integer >= 0"):
                call()

    def test_zero_cap_admits_only_empty_boxes(self):
        assert enumerate_box(3, 3, 0, cap=0) == [Partition([])]
        assert enumerate_set_exact((), 0, 0, cap=0) == [Partition([])]
        with pytest.raises(CapExceeded, match="1x1 exceeds the cap of 0"):
            enumerate_box(3, 3, 1, cap=0)
