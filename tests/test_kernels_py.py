"""The pure-Python kernels against the independent oracles.

These run whether or not the compiled backend is built.  They pin down each
path of ``_kernels_py``: both orientations of the conjugated 2-D table, the
1-D route for an inert bound, both branches of the 1-D helper on either
side of ``BLOCK_CUT``, and the split of ``partition_table`` into small
parts and rows of large parts on either side of each square.
"""

import pytest

from charrank import _kernels_py
from charrank.grassmannian import gaussian_binomial
from charrank.oracles import pentagonal_partition_table

from _brute import box as brute_box, set_exact as brute_set_exact

CUT = _kernels_py.BLOCK_CUT


def q_box(a, b, c):
    """Partitions of c in an a-by-b box, by the q-binomial product."""
    coeffs = gaussian_binomial(a + b, a)
    return coeffs[c] if c < len(coeffs) else 0


@pytest.mark.parametrize("a, b", [(2, 7), (7, 2), (4, 9), (9, 4), (6, 6), (1, 5)])
def test_box_count_both_orientations(a, b):
    for c in range(a * b + 3):  # past a*b the box holds nothing
        assert _kernels_py.box_count(a, b, c) == brute_box(a, b, c) == q_box(a, b, c)


@pytest.mark.parametrize("a, b", [(3, 8), (8, 3), (5, 5), (0, 4), (4, 0), (1, 1)])
def test_box_table_both_orientations(a, b):
    assert _kernels_py.box_table(a, b) == list(gaussian_binomial(a + b, a))


@pytest.mark.parametrize("c", [1, 2, 7, 12])
def test_box_count_inert_bound(c):
    for k in range(1, c + 1):
        expected = brute_box(k, c, c)
        assert _kernels_py.box_count(k, c, c) == expected  # b == c
        assert _kernels_py.box_count(c, k, c) == expected  # a == c
        assert _kernels_py.box_count(k, 10**30, c) == expected  # clamped to c
        assert _kernels_py.box_count(10**30, k, c) == expected


def test_box_count_empty_cases():
    assert _kernels_py.box_count(3, 4, 13) == 0  # c > a*b
    assert _kernels_py.box_count(4, 3, 13) == 0
    assert _kernels_py.box_count(0, 5, 3) == 0
    assert _kernels_py.box_count(5, 0, 3) == 0
    assert _kernels_py.box_count(0, 0, 0) == 1


@pytest.mark.parametrize(
    "parts, b, c",
    [
        ((1, 2, 3), 10, 4),  # b > c
        ((2, 5, 9), 4, 4),  # parts beyond c
        ((3, 7, 20), 6, 6),  # only the first part fits
        ((1, 4, 6), 5, 30),
        ((2,), 0, 0),
    ],
)
def test_set_exact_counts(parts, b, c):
    expected = [brute_set_exact(parts, s, c) for s in range(b + 1)]
    assert _kernels_py.set_exact_counts(parts, b, c) == expected


@pytest.mark.parametrize("n", [0, 1, CUT - 1, CUT, CUT + 1, 2 * CUT, 3 * CUT + 5])
def test_partition_table_across_block_cut(n):
    assert _kernels_py.partition_table(n) == pentagonal_partition_table(n)


def test_partition_table_every_weight_to_300():
    expected = pentagonal_partition_table(300)
    for n in range(301):
        assert _kernels_py.partition_table(n) == expected[: n + 1]


# The split point isqrt(n) + 1 moves at each square.  At 4096 the small
# parts first reach 64 = BLOCK_CUT, so the block branch of _accumulate.
@pytest.mark.parametrize(
    "n",
    sorted({m * m + d for m in range(2, 21) for d in (-1, 0, 1)} | {3000, 4095, 4096, 5000}),
)
def test_partition_table_around_squares_and_large(n):
    assert _kernels_py.partition_table(n) == pentagonal_partition_table(n)


@pytest.mark.parametrize("k", [CUT - 1, CUT, CUT + 1])
def test_box_count_inert_across_block_cut(k):
    # parts up to k: k = CUT - 1 uses only the scalar loop, the others
    # reach the block loop as well
    c = 3 * CUT + 8
    expected = q_box(k, c, c)
    assert _kernels_py.box_count(k, c, c) == expected
    assert _kernels_py.box_count(c, k, c) == expected


def test_box_count_long_inert_box():
    assert _kernels_py.box_count(3, 2000, 2000) == gaussian_binomial(2003, 3)[2000]
