"""The pure-Python kernels against the independent oracles.

These run whether or not the compiled backend is built.  They pin down each
path of ``_kernels_py``.  Every box goes through ``_box_row``, which orders
the box so that a <= b, multiplies in the numerator factors (1 - q^g),
g = b+1..a+b, that fall below the row's width, and divides by 1 - q^i for
i = 1..a on ``_divide``, all on one int of slots of ``_box_bits`` bits.
So the box tests cover both orientations, an inert bound (no numerator
factor), a numerator cut off by the width, and the whole numerator, on
both halves of the palindromic row: ``box_count`` folds a weight in the
upper half down and ``box_table`` mirrors the lower half.  Every packed
box row is held to the cell-by-cell row at the kernel's slot width and at
the tightest one, the slot width to the largest count of the q-Pascal
triangle, and ``box_table`` to that triangle past 64-bit slots.
``box_sum`` chains one row up in s from the box row of the step before its
first nonzero term to its last, s = weight // lo, and is held to the
term-by-term sum of box counts, to the chain walked from s = 1, to the
set-any count, and to dividing at each step from that term on.  Inert boxes
run long rows at widths on either side of the doubling passes of
``_divide``.  ``set_any_count`` divides one packed row on ``_divide`` too,
and is held to brute force at every weight of a few part sets, to the
plain coin-change loop, and its slot width to the largest count of its
row.  The rest covers the Durfee squares of ``partition_table`` at every
weight to 600 and around each change of isqrt(n), the one size rule of
every table kernel, and the calls at most one part fits, which build no
row.
Every slot of the packed rows of ``_part_rows`` is held to the plain loop
over whole rows, the three bounds on their slot width to p(c) and to
brute force, and the kernel's width to the least of them, and
``set_exact_counts`` to building no table out of reach, to pricing its
b + 1 rows of c + 1 weights once and to a memory ceiling.  The
Rademacher series is held to the pentagonal recurrence, under its first
remainder budget alone to weight 6000, its ball arithmetic to mpmath at a
higher precision, the fold of its Selberg sum to the congruence it rests
on, its squaring chains to one ``_exp`` each, and its certificate to
refusing a sum it cannot bound within 1/2 of an integer.  The point query
``partition_count`` is held to the pentagonal recurrence on both sides of
``SERIES_CUT``.
"""

import ast
import tracemalloc
from itertools import combinations_with_replacement
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import partition as sympy_partition

from charrank import _kernels_py
from charrank.errors import TableTooLarge
from charrank.grassmannian import gaussian_binomial
from charrank.oracles import gaussian_triangle, pentagonal_partition_table
from charrank.partitions import count_set_any

from _backends import BAD_CALLS, PRICE, ROWS, SEAM, SERIES, SLOT_BITS, SRC, call, forbid
from _brute import box as brute_box, set_exact as brute_set_exact


def q_box(a, b, c):
    """Partitions of c in an a-by-b box, by the q-binomial product."""
    coeffs = gaussian_binomial(a + b, a)
    return coeffs[c] if c < len(coeffs) else 0


@pytest.mark.parametrize("a, b", [(2, 7), (7, 2), (4, 9), (9, 4), (6, 6), (1, 5)])
def test_box_count_both_orientations(a, b):
    # up to max(a, b) no numerator factor reaches the table, above it the
    # factors g <= c do, and past a*b the box holds nothing
    for c in range(a * b + 3):
        assert _kernels_py.box_count(a, b, c) == brute_box(a, b, c) == q_box(a, b, c)


@pytest.mark.parametrize("a, b", [(3, 8), (8, 3), (5, 5), (0, 4), (4, 0), (1, 1)])
def test_box_table_both_orientations(a, b):
    # once min(a, b) >= 2 every numerator factor g <= a + b <= a*b is applied
    assert _kernels_py.box_table(a, b) == list(gaussian_binomial(a + b, a))


@pytest.mark.parametrize("c", [1, 2, 7, 12])
def test_box_count_inert_bound(c):
    # a bound clamped to c puts every numerator factor past the row, so
    # these divide by 1 - q^i for i = 1..k alone
    for k in range(1, c + 1):
        expected = brute_box(k, c, c)
        assert _kernels_py.box_count(k, c, c) == expected  # b == c
        assert _kernels_py.box_count(c, k, c) == expected  # a == c
        assert _kernels_py.box_count(k, 10**30, c) == expected  # clamped to c
        assert _kernels_py.box_count(10**30, k, c) == expected


@pytest.mark.parametrize("a, b", [(2, 3), (3, 2), (5, 8), (8, 5), (7, 7), (12, 40)])
def test_box_count_truncated_numerator(a, b):
    # max(a, b) < c < a + b: the numerator factors g = max(a, b)+1..c reach
    # the table, the ones above c do not
    for c in range(max(a, b) + 1, a + b):
        assert _kernels_py.box_count(a, b, c) == q_box(a, b, c)


@pytest.mark.parametrize("a, b", [(3, 5), (5, 3), (4, 4), (1, 9), (7, 6)])
def test_box_count_upper_half_of_the_row(a, b):
    # weights above a*b / 2 are folded to a*b - c, whose row is shorter
    for c in range((a * b + 1) // 2, a * b + 1):
        assert _kernels_py.box_count(a, b, c) == brute_box(a, b, c) == q_box(a, b, c)


def test_box_table_is_the_q_binomial_for_every_small_box():
    # a*b even and odd, and a*b = 0, where the lower half is the whole row;
    # the q-binomial starts at n = 1, and the 0 x 0 box holds one partition
    for a in range(12):
        for b in range(12):
            expected = list(gaussian_binomial(a + b, a)) if a + b else [1]
            assert _kernels_py.box_table(a, b) == expected, (a, b)


def test_guard_groups_name_every_private_function_once():
    # a new row builder, price or series helper must join a group, so the
    # guards that forbid the group cover it
    tree = ast.parse((SRC / "_kernels_py.py").read_text())
    private = [n.name for n in tree.body if isinstance(n, ast.FunctionDef) and n.name[0] == "_"]
    grouped = [name for name in ROWS + PRICE + SLOT_BITS + SERIES if name != "accumulate"]
    assert sorted(grouped) == sorted(private)


def test_box_table_too_large_is_refused_before_it_is_built(monkeypatch):
    forbid(monkeypatch, *ROWS)
    with pytest.raises(TableTooLarge):
        _kernels_py.box_table(5 * 10**4, 10**5)


@pytest.mark.parametrize(
    "kernel, args, entries, parts",
    [
        ("box_count", (3, 8, 20), 5, 3),  # folds 20 to 24 - 20 = 4
        ("box_count", (40, 2, 30), 31, 2),  # clamps 40 to 30
        ("box_sum", (2, 5, 30), 31, 15),
        ("set_any_count", ((2, 3, 40), 30), 31, 2),  # 40 adds nothing
        ("partition_table", (30,), 31, 10),  # squares 1..5, two parts each
        ("box_table", (4, 8), 33, 4),  # the whole row, weights 0..32
        ("set_exact_counts", ((2, 3), 3, 7), 8, 4),  # rows of 0..3 parts
    ],
)
def test_1d_limit_is_on_entries_times_parts(monkeypatch, kernel, args, entries, parts):
    # every table entry point prices its call by the one rule of _check_row
    expected = getattr(_kernels_py, kernel)(*args)
    monkeypatch.setattr(_kernels_py, "MAX_TABLE_CELLS", entries * parts)
    assert getattr(_kernels_py, kernel)(*args) == expected
    monkeypatch.setattr(_kernels_py, "MAX_TABLE_CELLS", entries * parts - 1)
    with pytest.raises(TableTooLarge, match="exceeds the limit"):
        getattr(_kernels_py, kernel)(*args)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 2000))
def test_box_table_is_refused_wherever_box_count_is_at_its_middle(a, b, limit):
    # box_count at weight a*b // 2 builds the same lower half of the row
    # that box_table mirrors, and its price is never above the table's
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels_py, "MAX_TABLE_CELLS", limit)
        try:
            _kernels_py.box_count(a, b, a * b // 2)
        except TableTooLarge:
            with pytest.raises(TableTooLarge):
                _kernels_py.box_table(a, b)


@pytest.mark.parametrize(
    "kernel, args",
    [
        ("box_count", (10**6, 10**6, 10**6)),
        ("box_sum", (1, 2, 10**7)),
        ("set_any_count", ((1, 2, 3), 2 * 10**7)),
        ("partition_table", (10**6,)),
    ],
)
def test_1d_work_too_large_is_refused_before_it_runs(monkeypatch, kernel, args):
    forbid(monkeypatch, *ROWS)
    with pytest.raises(TableTooLarge):
        getattr(_kernels_py, kernel)(*args)


@pytest.mark.parametrize(
    "kernel, args, expected",
    [
        ("set_any_count", ((40,), 30), 0),
        ("set_any_count", ((40,), 0), 1),
        ("set_any_count", ((), 10**9), 0),
        ("box_sum", (5, 9, 0), 1),
        ("box_sum", (10**9, 10**9, 3 * 10**7), 0),  # once a 32 MiB row
        ("box_sum", (10**9, 10**9, 2**25 + 1), 0),  # once refused as too large
        # one part within the weight: its multiples count
        ("set_any_count", ((7,), 7 * 2**25), 1),
        ("set_any_count", ((7,), 7 * 2**25 + 1), 0),
        ("set_any_count", ((5, 10**12), 10**9), 1),  # the second part is out of reach
        ("box_sum", (7, 7, 7 * 2**25), 1),
        ("box_sum", (7, 7, 7 * 2**25 + 1), 0),
        ("box_sum", (1, 1, 10**9), 1),
    ],
)
def test_no_part_within_the_weight_builds_no_row(monkeypatch, kernel, args, expected):
    # with no part within the weight only the empty partition of 0 can
    # count, and with one only its multiples, so the call is answered
    # before it is priced, let alone built
    forbid(monkeypatch, *ROWS, *PRICE)
    assert getattr(_kernels_py, kernel)(*args) == expected


def box_sum_terms(lo, hi, weight):
    """The paper's sum over s of the counts of weight - lo*s in an
    (hi - lo) x s box, one box count per term."""
    return sum(
        _kernels_py.box_count(hi - lo, s, weight - lo * s) for s in range(weight // lo + 1)
    )


@given(st.integers(1, 6), st.integers(0, 9), st.integers(0, 70))
def test_box_sum_is_the_term_by_term_sum(lo, span, weight):
    assert _kernels_py.box_sum(lo, lo + span, weight) == box_sum_terms(lo, lo + span, weight)


def unseeded_chain(lo, hi, weight):
    """The chain of ``box_sum`` walked from s = 1, cell by cell: the row of
    [m+s, s]_q, m = hi - lo, is the one of [m+s-1, s-1]_q times
    (1 - q^(m+s)) / (1 - q^s), cut to the weight - lo*s + 1 entries left."""
    row, total = [1] + [0] * weight, int(weight == 0)
    for s in range(1, weight // lo + 1):
        row = row[: weight - lo * s + 1]
        g = hi - lo + s
        for w in range(len(row) - 1, g - 1, -1):
            row[w] -= row[w - g]
        for w in range(s, len(row)):
            row[w] += row[w - s]
        total += row[-1]
    return total


@settings(max_examples=300)
@given(st.integers(1, 12), st.integers(0, 14), st.integers(0, 90))
def test_box_sum_is_the_unseeded_chain(lo, span, weight):
    assert _kernels_py.box_sum(lo, lo + span, weight) == unseeded_chain(lo, lo + span, weight)


@pytest.mark.parametrize("lo, hi, weight", [(1, 2, 3000), (3, 5, 2000), (1, 8, 1000)])
def test_box_sum_is_the_set_any_count_at_large_weights(lo, hi, weight):
    # ceil(weight/hi) = 1500, 400 and 125: the seed skips most of the chain
    assert _kernels_py.box_sum(lo, hi, weight) == count_set_any(range(lo, hi + 1), weight)


@pytest.mark.parametrize(
    "lo, hi, weight", [(1, 2, 40), (3, 5, 200), (1, 8, 100), (2, 9, 9), (1, 30, 30), (4, 6, 0)]
)
def test_box_sum_walks_only_the_steps_from_its_first_nonzero_term(monkeypatch, lo, hi, weight):
    # the seed's box row divides by 1 - q^i, i = 1..min(hi - lo, seed), on
    # its weight - lo*seed + 1 slots; then each step s = ceil(weight/hi)..
    # weight // lo divides by 1 - q^s on the weight - lo*s + 1 slots left,
    # which runs no doubling pass once part s no longer fits
    calls = []

    def counting(row, v, width, bits, mask):
        calls.append((v, width))
        return real(row, v, width, bits, mask)

    real = _kernels_py._divide
    monkeypatch.setattr(_kernels_py, "_divide", counting)
    expected = unseeded_chain(lo, hi, weight)
    assert _kernels_py.box_sum(lo, hi, weight) == expected
    seed = max(-(-weight // hi) - 1, 0)
    parts = [(i, weight - lo * seed + 1) for i in range(1, min(hi - lo, seed) + 1)]
    steps = [(s, weight - lo * s + 1) for s in range(seed + 1, weight // lo + 1)]
    assert calls == parts + steps


@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 5), (2, 2), (3, 7), (1, 40), (5, 5)])
def test_box_sum_weight_zero_and_small(lo, hi):
    # weight 0 is the empty partition alone; parts above the weight add nothing
    for weight in range(12):
        expected = sum(brute_set_exact(range(lo, hi + 1), s, weight) for s in range(weight + 1))
        assert _kernels_py.box_sum(lo, hi, weight) == expected, weight


def test_box_count_empty_cases():
    assert _kernels_py.box_count(3, 4, 13) == 0  # c > a*b
    assert _kernels_py.box_count(4, 3, 13) == 0
    assert _kernels_py.box_count(0, 5, 3) == 0
    assert _kernels_py.box_count(5, 0, 3) == 0
    assert _kernels_py.box_count(0, 0, 0) == 1


@pytest.mark.parametrize("text", BAD_CALLS)
def test_bad_call_is_refused(text):
    with pytest.raises(ValueError) as caught:
        call(_kernels_py, text)
    assert str(caught.value) == BAD_CALLS[text]


@pytest.mark.parametrize(
    "parts, b, c",
    [
        ((1, 2, 3), 10, 4),  # b > c
        ((2, 5, 9), 4, 4),  # parts beyond c
        ((3, 7, 20), 6, 6),  # only the first part fits
        ((1, 4, 6), 5, 30),
        ((2,), 0, 0),
        ((), 3, 0),  # no parts: only the empty partition
        ((), 3, 5),
        ((3, 5, 8), 2, 16),  # least > 1, b binding
        ((3, 5, 8), 9, 16),  # b > c // least: rows past 5 hold nothing
        ((4, 6), 12, 24),  # c // least parts exactly fill c
        ((7, 9), 4, 6),  # the least part is above c
        ((2, 3, 40, 41), 8, 12),  # parts >= width
    ],
)
def test_set_exact_counts(parts, b, c):
    expected = [brute_set_exact(parts, s, c) for s in range(b + 1)]
    assert _kernels_py.set_exact_counts(parts, b, c) == expected


@pytest.mark.parametrize(
    "parts, top",
    [
        ((), 6),  # no parts: only the empty partition
        ((1,), 5),
        ((3, 5, 8), 40),  # least > 1
        ((2, 3, 40, 41), 12),  # parts above top
        ((7,), 0),
        (tuple(range(1, 10)), 60),  # more parts than doubling passes
    ],
)
def test_set_any_count(parts, top):
    for c in range(top + 1):
        expected = sum(brute_set_exact(parts, s, c) for s in range(c + 1))
        assert _kernels_py.set_any_count(parts, c) == expected, c


def coin_change(parts, top):
    """Partitions into parts from ``parts`` for every weight 0..top, cell
    by cell: each part v adds row[w - v] into row[w] for w ascending."""
    row = [1] + [0] * top
    for v in parts:
        for w in range(v, top + 1):
            row[w] += row[w - v]
    return row


@given(st.sets(st.integers(1, 40), max_size=8), st.integers(0, 600))
def test_set_any_count_is_the_coin_change_count(members, weight):
    parts = tuple(sorted(members))
    assert _kernels_py.set_any_count(parts, weight) == coin_change(parts, weight)[weight]


@pytest.mark.parametrize(
    "parts", [(1,), (1, 2), (2, 3), (1, 2, 3), (3, 5, 7), tuple(range(1, 7)), tuple(range(1, 21))]
)
def test_set_any_slot_bound_holds_the_largest_count(monkeypatch, parts):
    # the slot width the kernel hands _divide holds every count of its row;
    # a row is built only from the weight where a second part fits
    widths = []

    def spy(row, v, width, bits, mask):
        widths.append(bits)
        return real(row, v, width, bits, mask)

    real = _kernels_py._divide
    monkeypatch.setattr(_kernels_py, "_divide", spy)
    counts = coin_change(parts, 200)
    if len(parts) == 1:
        assert [_kernels_py.set_any_count(parts, w) for w in range(201)] == counts
        assert widths == []
        return
    for w in range(parts[1], 201):
        widths.clear()
        assert _kernels_py.set_any_count(parts, w) == counts[w]
        assert set(widths) == {widths[0]}
        assert widths[0] >= max(counts[: w + 1]).bit_length(), w


def plain_part_rows(parts, rows, width):
    """``_part_rows`` without the windows: every pass adds the whole row
    below, shifted by v, into each row."""
    table = [[0] * width for _ in range(rows + 1)]
    table[0][0] = 1
    for v in parts:
        for p in range(1, rows + 1):
            for w in range(v, width):
                table[p][w] += table[p - 1][w - v]
    return table


def unpack(row, width, bits):
    """The ``width`` slots of ``bits`` bits each of a packed row."""
    assert row >> width * bits == 0, "the row runs past its last slot"
    return [row >> w * bits & (1 << bits) - 1 for w in range(width)]


def check_part_rows(parts, rows, width):
    # slots no wider than the largest count: every carry out of one would
    # corrupt the next
    expected = plain_part_rows(parts, rows, width)
    bits = max(map(max, expected)).bit_length()
    table = _kernels_py._part_rows(parts, rows, width, bits)
    assert [unpack(row, width, bits) for row in table] == expected


@given(
    st.sets(st.integers(1, 30), max_size=6),
    st.integers(0, 12),
    st.integers(1, 60),
)
def test_part_rows_windows_match_plain_loop(members, rows, width):
    check_part_rows(tuple(sorted(v for v in members if v < width)), rows, width)


def test_part_rows_past_the_word_size_boundary():
    # weights past SEAM, which the compiled kernels hand to these, and
    # counts past 64 bits
    check_part_rows((1, 2, 3, 5, 8, 13), 40, SEAM + 14)


def plain_box_row(a, b, width):
    """The a-by-b box row cut to ``width`` weights, cell by cell: each
    numerator factor 1 - q^g, g = max(a, b)+1..a+b, then each part
    1..min(a, b)."""
    row = [1] + [0] * (width - 1)
    for g in range(max(a, b) + 1, a + b + 1):
        for w in range(width - 1, g - 1, -1):
            row[w] -= row[w - g]
    for v in range(1, min(a, b) + 1):
        for w in range(v, width):
            row[w] += row[w - v]
    return row


def check_box_row(a, b, width, expected):
    # at the kernel's slot width and at the tightest one, where the largest
    # count fills its slot: every carry out of a slot would corrupt the next
    for bits in (_kernels_py._box_bits(a, b, width - 1), max(expected).bit_length()):
        assert unpack(_kernels_py._box_row(a, b, width, bits), width, bits) == expected


def test_box_row_slots_match_plain_loop_for_every_box_to_30():
    # widths where the numerator starts, ends and runs whole, and the halves
    for a in range(31):
        for b in range(31):
            full = plain_box_row(a, b, a * b + 1)
            cuts = {1, 2, max(a, b) + 1, max(a, b) + 2, a + b, a * b // 2 + 1, a * b + 1}
            for width in sorted(w for w in cuts if 1 <= w <= a * b + 1):
                check_box_row(a, b, width, full[:width])


@settings(max_examples=300)
@given(st.integers(0, 30), st.integers(0, 30), st.data())
def test_box_row_slots_match_plain_loop_at_any_width(a, b, data):
    width = data.draw(st.integers(1, a * b + 1))
    check_box_row(a, b, width, plain_box_row(a, b, width))


def test_box_slot_bound_holds_the_largest_count():
    # every prefix of every row of the q-Pascal triangle to n = 60
    triangle = gaussian_triangle(60)
    for n, rows in enumerate(triangle):
        for k, row in enumerate(rows):
            largest = 0
            for c, count in enumerate(row):
                largest = max(largest, count)
                assert _kernels_py._box_bits(n - k, k, c) >= largest.bit_length(), (n, k, c)


def test_box_table_is_the_q_pascal_triangle_to_80():
    # slots past 64 bits from (n, k) = (68, 31) on; C(80, 40) has 77 bits
    triangle = gaussian_triangle(80)
    for n, rows in enumerate(triangle):
        for k, row in enumerate(rows):
            assert _kernels_py.box_table(n - k, k) == list(row), (n, k)


def test_apostol_slot_bound_holds_p():
    # p(c) < e^(pi sqrt(2c/3)): the bound holds p(c) even without the
    # slot's spare bit
    table = pentagonal_partition_table(5000)
    for c in range(5001):
        assert table[c] < 2 ** _kernels_py._apostol_bits(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(5001, 10**6))
def test_apostol_slot_bound_holds_p_far_out(c):
    assert sympy_partition(c) < 2 ** _kernels_py._apostol_bits(c)


@pytest.mark.parametrize("members", [(1,), (2,), (1, 2), (1, 3, 4), (2, 3, 5), tuple(range(1, 7))])
def test_composition_and_multiset_slot_bounds_hold_every_count(monkeypatch, members):
    # every multiset of up to 6 parts, counted by weight and size, against
    # the bounds set_exact_counts states; a spy reads the slot width the
    # kernel hands _part_rows, one more than the least of its three bounds
    counts = {}
    for p in range(7):
        for multiset in combinations_with_replacement(members, p):
            key = p, sum(multiset)
            counts[key] = counts.get(key, 0) + 1
    widths = []

    def spy(parts, rows, width, bits):
        widths.append(bits)
        return real(parts, rows, width, bits)

    real = _kernels_py._part_rows
    monkeypatch.setattr(_kernels_py, "_part_rows", spy)
    for smax in range(1, 7):
        for c in range(1, 19):
            kinds = sum(v <= c for v in members)
            if not kinds:
                continue
            largest = max(n for (p, w), n in counts.items() if p <= smax and w <= c)
            compositions = (smax - 1) * c.bit_length()
            multisets = comb(smax + kinds - 1, kinds - 1).bit_length()
            assert largest <= 2**compositions
            assert largest < 2**multisets
            if smax * members[0] <= c <= smax * members[-1]:  # the kernel builds its table
                _kernels_py.set_exact_counts(members, smax, c)
                bounds = (_kernels_py._apostol_bits(c), compositions, multisets)
                assert widths[-1] == 1 + min(bounds), (smax, c)


@pytest.mark.parametrize(
    "parts, b, c",
    [
        ((1, 2), 1, 10**7),  # one part: a slot sized from p(c) alone needs a 15 GB row
        ((1,), 0, 2**25 - 1),  # row 0 alone, at the cell limit
        (tuple(range(1, 9)), 7, 4 * 10**6),  # 7 parts of at most 8
    ],
)
def test_set_exact_counts_out_of_reach_builds_no_table(monkeypatch, parts, b, c):
    forbid(monkeypatch, *ROWS)
    assert _kernels_py.set_exact_counts(parts, b, c) == [0] * (b + 1)


def test_set_exact_counts_prices_its_rows(monkeypatch):
    # the b + 1 rows of c + 1 weights are priced once, with a table (10
    # rows of 10 weights) and without one (c = 0 builds none)
    monkeypatch.setattr(_kernels_py, "MAX_TABLE_CELLS", 100)
    assert _kernels_py.set_exact_counts((1,), 9, 9) == [0] * 9 + [1]
    assert _kernels_py.set_exact_counts((1,), 99, 0) == [1] + [0] * 99
    with pytest.raises(TableTooLarge, match="a row of 10 weights times 11 parts"):
        _kernels_py.set_exact_counts((1,), 10, 9)
    with pytest.raises(TableTooLarge, match="a row of 1 weights times 101 parts"):
        _kernels_py.set_exact_counts((1,), 100, 0)


@pytest.mark.parametrize(
    "parts, b, c",
    [
        ((1, 3000), 100, 300000),  # 100 parts 3000, and no other way
        ((1, 10**6), 20, 10**6 + 19),  # 19 ones and a million
    ],
)
def test_set_exact_counts_peak_memory(parts, b, c):
    # tracemalloc sees this call's own allocations only; as lists of
    # lists these tables peaked at 238 and 168 MiB
    tracemalloc.start()
    try:
        counts = _kernels_py.set_exact_counts(parts, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [0] * b + [1]
    assert peak < 64 * 2**20


# Square s of partition_table divides a body of n - s*s + 1 weights,
# one residue class mod s at a time.  Besides small weights, the cases give
# each square 1..8 a body of 8s and of 16s weights, every class whole, and
# one of a weight less, whose last class is one short.
@pytest.mark.parametrize(
    "n",
    sorted(
        {0, 1, 63, 64, 65, 128, 197}
        | {s * s + m * s - 1 + d for s in range(1, 9) for m in (8, 16) for d in (-1, 0)}
    ),
)
def test_partition_table_whole_and_short_residue_classes(n):
    assert _kernels_py.partition_table(n) == pentagonal_partition_table(n)


# isqrt(n) grows at each of the 17 squares to 300, and each square's body
# takes every length from one weight up.
def test_partition_table_every_weight_to_300():
    expected = pentagonal_partition_table(300)
    for n in range(301):
        assert _kernels_py.partition_table(n) == expected[: n + 1]


# isqrt(n), the side of the first square of the Horner loop, grows by one
# at each square m*m, where that square's body holds a single weight.
@pytest.mark.parametrize(
    "n",
    sorted({m * m + d for m in range(2, 21) for d in (-1, 0, 1)} | {3000, 4095, 4096, 5000}),
)
def test_partition_table_around_squares_and_large(n):
    assert _kernels_py.partition_table(n) == pentagonal_partition_table(n)


def test_partition_table_every_weight_from_301_to_600():
    expected = pentagonal_partition_table(600)
    for n in range(301, 601):
        assert _kernels_py.partition_table(n) == expected[: n + 1]


@given(st.integers(0, 600), st.data())
def test_partition_table_prefix_is_the_smaller_table(n, data):
    # each n truncates the Durfee squares at its own weights, so a prefix
    # of a larger table must come out the same
    m = data.draw(st.integers(0, n))
    assert _kernels_py.partition_table(n)[: m + 1] == _kernels_py.partition_table(m)


@pytest.mark.parametrize("k", [63, 64, 65])
def test_box_count_inert_63_to_65_parts(k):
    # no numerator factor (the bound c is inert), then parts 1..k over a
    # row of 201 weights, in either orientation
    c = 200
    expected = q_box(k, c, c)
    assert _kernels_py.box_count(k, c, c) == expected
    assert _kernels_py.box_count(c, k, c) == expected


@pytest.mark.parametrize("v", [1, 2, 7, 16])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_box_count_inert_across_a_doubling_pass(v, offset):
    # no numerator factor (the bound c is inert), then parts 1..v over a
    # row of 16v + offset weights: _divide takes part v in 4 doubling
    # passes at offset -1 and 0, and in 5 at offset 1
    c = 16 * v + offset - 1
    expected = q_box(v, c, c)
    assert _kernels_py.box_count(v, c, c) == expected
    assert _kernels_py.box_count(c, v, c) == expected


def test_box_count_long_inert_box():
    # no numerator factor: parts 1..3 over 2001 weights
    assert _kernels_py.box_count(3, 2000, 2000) == gaussian_binomial(2003, 3)[2000]


def _holds(ball, value, prec):
    """Whether ``ball``, a (mid, rad) pair at scale 2**-prec, holds the
    mpmath number ``value``."""
    mid, rad = ball
    return mid - rad <= value * 2**prec <= mid + rad


class _Precision(Exception):
    pass


@pytest.mark.parametrize("prec", [1, 8, 40, 300, 2000, 8000, "top"])
def test_pi_ball_holds_pi(monkeypatch, prec):
    # "top": the most the series asks for, at the largest weight it serves
    if prec == "top":

        def seen(prec):
            raise _Precision(prec)

        monkeypatch.setattr(_kernels_py, "_pi", seen)
        with pytest.raises(_Precision) as top:
            _kernels_py.partition_number(2**25 - 1)
        monkeypatch.undo()
        prec = top.value.args[0]
    ball = _kernels_py._pi(prec)
    with mpmath.workprec(prec + 100):
        assert _holds(ball, mpmath.pi, prec)
    assert ball[1] == 2  # the rounding of the sum is below one unit


@given(
    st.integers(0, 150 * 2**8),
    st.integers(0, 3),
    st.integers(0, 6),
    st.sampled_from([8, 40, 200]),
)
def test_exp_ball_holds_exp_at_both_ends(x, rad, roots, prec):
    # x, drawn at scale 2**-8, is at most 150; ball i of its squaring chain
    # holds e**(x / 2**i), as e**x_k for x = x_(k / 2**i) in the series
    mid = x << prec >> 8
    chain = _kernels_py._exp((mid, rad), prec, roots)
    assert len(chain) == roots + 1
    with mpmath.workprec(prec + 400):
        for i, ball in enumerate(chain):
            for end in (max(mid - rad, 0), mid + rad):
                assert _holds(ball, mpmath.exp(mpmath.mpf(end) / 2 ** (prec + i)), prec)


@given(st.integers(-100, 100), st.integers(1, 60), st.sampled_from([8, 40, 200]))
def test_cos_ball_holds_cos(num, den, prec):
    # every folding of the angle: past pi/4, pi/2, pi and 2 pi, and negative
    with mpmath.workprec(prec + 100):
        ball = _kernels_py._cos(num, den, _kernels_py._pi(prec), prec)
        assert _holds(ball, mpmath.cos(mpmath.pi * num / den), prec)


def test_series_first_budget_certifies_every_weight_to_6000(monkeypatch):
    # the remainder bound, not the budget after it, certifies each sum: a
    # precision guard short of the error growth of _exp fails here first
    monkeypatch.setattr(_kernels_py, "TAIL_BUDGETS", _kernels_py.TAIL_BUDGETS[:1])
    expected = pentagonal_partition_table(6000)
    assert [_kernels_py.partition_number(n) for n in range(6001)] == expected


@pytest.mark.parametrize("n", [813, 2903])
def test_series_runs_one_exp_per_chain(monkeypatch, n):
    # x_2k = x_k / 2: one _exp for each odd j whose chain j, 2j, 4j, ...
    # holds a nonzero term, one in the remainder bound, and no more
    calls, tails = [], []
    exp, tail = _kernels_py._exp, _kernels_py._tail

    def exp_spy(*args):
        calls.append(args)
        return exp(*args)

    def tail_spy(n, terms, pi_ball, prec):
        tails.append(terms)
        return tail(n, terms, pi_ball, prec)

    monkeypatch.setattr(_kernels_py, "_exp", exp_spy)
    monkeypatch.setattr(_kernels_py, "_tail", tail_spy)
    assert _kernels_py.partition_number(n) == pentagonal_partition_table(n)[n]
    [terms] = tails  # the first guess certifies
    live = [
        k
        for k in range(1, terms + 1)
        if any(((3 * l * l + l) // 2 + n) % k == 0 for l in range(2 * k))
    ]
    odd = {k // (k & -k) for k in live}
    assert len(odd) < len(live)
    assert len(calls) == len(odd) + 1


def test_selberg_fold_pairs_l_with_l_plus_k():
    # the solutions l < 2k of (3l^2 + l)/2 = -n mod k: for odd k, l + k
    # solves as l does, (3(l+k)^2 + (l+k))/2 adding 3lk + k(3k+1)/2; for
    # even k that is k/2 mod k, so no two solutions lie k apart
    for k in range(1, 129):
        classes = {}
        for l in range(2 * k):
            classes.setdefault((3 * l * l + l) // 2 % k, set()).add(l)
        for n in range(501):
            solutions = classes.get(-n % k, set())
            if k % 2:
                assert {(l + k) % (2 * k) for l in solutions} == solutions, (k, n)
            else:
                assert not any(l + k in solutions for l in solutions), (k, n)


def test_partition_count_is_the_pentagonal_table():
    cut = _kernels_py.SERIES_CUT
    expected = pentagonal_partition_table(max(600, cut + 1, SEAM + 1))
    assert [_kernels_py.partition_count(n) for n in range(601)] == expected[:601]
    for n in (cut - 1, cut, cut + 1, SEAM, SEAM + 1):
        assert _kernels_py.partition_count(n) == expected[n], n
    with pytest.raises(ValueError, match="^weight must be an integer >= 0, got -1$"):
        _kernels_py.partition_count(-1)


@pytest.mark.parametrize("n", [2, 200, 1000, 10**5])
def test_series_refuses_a_sum_it_cannot_certify(monkeypatch, n):
    # a remainder bound of up to 1 leaves more than 1/2 unaccounted for
    monkeypatch.setattr(_kernels_py, "TAIL_BUDGETS", (64,))
    with pytest.raises(ArithmeticError, match="not within its error bound"):
        _kernels_py.partition_number(n)


@pytest.mark.parametrize("n", [2, 200, 1000])
def test_series_adds_terms_for_the_next_budget(monkeypatch, n):
    # the first budget never certifies; the second continues the same sum
    # with the terms it still lacks
    tail, seen = _kernels_py._tail, []

    def spy(n, terms, pi_ball, prec):
        seen.append(terms)
        return tail(n, terms, pi_ball, prec)

    monkeypatch.setattr(_kernels_py, "_tail", spy)
    monkeypatch.setattr(_kernels_py, "TAIL_BUDGETS", (64, 15))
    assert _kernels_py.partition_number(n) == pentagonal_partition_table(n)[n]
    assert seen[0] < seen[-1]
