"""The pure-Python kernels against the independent oracles.

These run whether or not the compiled backend is built.  They pin down each
path of ``_kernels_py``.  Every box goes through ``_box_row``, which orders
the box so that a <= b and multiplies in the numerator factors (1 - q^g),
g = b+1..a+b, that fall below the table's width before ``_accumulate``
adds parts 1..a.  So the box tests cover both orientations, an inert bound
(no numerator factor), a numerator cut off by the width, and the whole
numerator.  The rest covers both branches of ``_accumulate`` on either side
of ``CLASS_CUT``, the Durfee squares of ``partition_table`` on either side
of each square's cut between those branches and of each change of
isqrt(n), and the reachable windows of ``_part_rows`` against the plain
loop over whole rows.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charrank import _kernels_py
from charrank.grassmannian import gaussian_binomial
from charrank.oracles import pentagonal_partition_table

from _brute import box as brute_box, set_exact as brute_set_exact

CUT = _kernels_py.CLASS_CUT


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
    # a bound clamped to c puts every numerator factor past the table, so
    # these are _accumulate over parts 1..k alone
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


def test_box_count_empty_cases():
    assert _kernels_py.box_count(3, 4, 13) == 0  # c > a*b
    assert _kernels_py.box_count(4, 3, 13) == 0
    assert _kernels_py.box_count(0, 5, 3) == 0
    assert _kernels_py.box_count(5, 0, 3) == 0
    assert _kernels_py.box_count(0, 0, 0) == 1


@pytest.mark.parametrize(
    "kernel, args",
    [
        ("box_count", (3, 4, -1)),
        ("box_count", (-1, 4, 3)),
        ("box_count", (3, -1, 3)),
        ("set_exact_counts", ((1, 2), -1, 3)),
        ("set_exact_counts", ((1, 2), 3, -1)),
        ("set_any_table", ((1, 2), -1)),
    ],
)
def test_negative_argument_is_refused(kernel, args):
    with pytest.raises(ValueError, match="must be nonnegative"):
        getattr(_kernels_py, kernel)(*args)


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
        (tuple(range(1, 10)), 60),  # residue classes of at least CLASS_CUT
    ],
)
def test_set_any_table(parts, top):
    expected = [
        sum(brute_set_exact(parts, s, c) for s in range(c + 1)) for c in range(top + 1)
    ]
    assert _kernels_py.set_any_table(parts, top) == expected


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


@given(
    st.sets(st.integers(1, 30), max_size=6),
    st.integers(0, 12),
    st.integers(1, 60),
)
def test_part_rows_windows_match_plain_loop(members, rows, width):
    parts = tuple(sorted(members))
    expected = plain_part_rows(parts, rows, width)
    assert _kernels_py._part_rows(parts, rows, width) == expected


# Square s of partition_table divides a body of n - s*s + 1 weights, which
# takes the residue classes of _accumulate when CLASS_CUT * s fits in it:
# from n = s*s + CLASS_CUT*s - 1 on.  Besides small weights and weights
# between cuts, the cases hold a pair across the cut of each square 1..8;
# below 16 every square runs the scalar loop, and the largest square,
# isqrt(n), always does.
@pytest.mark.parametrize(
    "n",
    sorted(
        {0, 1, 63, 64, 65, 128, 197}
        | {s * s + CUT * s - 1 + d for s in range(1, 9) for d in (-1, 0)}
    ),
)
def test_partition_table_across_block_cut(n):
    assert _kernels_py.partition_table(n) == pentagonal_partition_table(n)


# By the cut above, this sweep crosses the cut of squares 1 to 11 (at
# n = 16, 35, ..., 296), and isqrt(n) grows at each of the 17 squares.
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


@given(st.integers(0, 600), st.data())
def test_partition_table_prefix_is_the_smaller_table(n, data):
    # each n truncates the Durfee squares at its own weights, so a prefix
    # of a larger table must come out the same
    m = data.draw(st.integers(0, n))
    assert _kernels_py.partition_table(n)[: m + 1] == _kernels_py.partition_table(m)


@pytest.mark.parametrize("k", [63, 64, 65])
def test_box_count_inert_across_block_cut(k):
    # no numerator factor (the bound c is inert), then parts up to k at
    # weight 200: parts up to 12 take the residue classes of the 201
    # weights, the larger ones the scalar loop
    c = 200
    expected = q_box(k, c, c)
    assert _kernels_py.box_count(k, c, c) == expected
    assert _kernels_py.box_count(c, k, c) == expected


@pytest.mark.parametrize("v", [1, 2, 7, 16])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_box_count_inert_across_class_cut(v, offset):
    # no numerator factor (the bound c is inert), then parts 1..v into a
    # table of CLASS_CUT * v + offset weights: the parts below v take the
    # residue classes, and v itself takes them at offset 0 and 1 but the
    # scalar loop at offset -1
    c = CUT * v + offset - 1
    expected = q_box(v, c, c)
    assert _kernels_py.box_count(v, c, c) == expected
    assert _kernels_py.box_count(c, v, c) == expected


def test_box_count_long_inert_box():
    # no numerator factor: parts 1..3 over 2001 weights
    assert _kernels_py.box_count(3, 2000, 2000) == gaussian_binomial(2003, 3)[2000]
