import pytest
from hypothesis import given
from hypothesis import strategies as st
from math import comb

from charrank import _dispatch
from charrank.errors import InvalidDimensions
from charrank.grassmannian import PoincareTable, betti, gaussian_binomial, poincare
from charrank.oracles import gaussian_triangle
from charrank.partitions import count_box


class TestBetti:
    def test_projective_line_anchor(self):
        assert betti(2, 1, 0) == 1
        assert betti(2, 1, 1) == 1

    def test_planes_in_r4(self):
        assert betti(4, 2, 2) == 2

    def test_zero_beyond_dimension(self):
        assert betti(5, 2, 7) == 0  # dimension is 2*3 = 6

    def test_is_a_box_count(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for c in range(k * (n - k) + 2):
                    assert betti(n, k, c) == count_box(n - k, k, c)

    @given(st.integers(1, 16), st.data())
    def test_duality(self, n, data):
        k = data.draw(st.integers(0, n))
        c = data.draw(st.integers(0, n * n))
        assert betti(n, k, c) == betti(n, n - k, c)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidDimensions):
            betti(2, 3, 0)
        with pytest.raises(InvalidDimensions):
            betti(0, 0, 0)
        with pytest.raises(InvalidDimensions):
            betti(4, -1, 0)
        with pytest.raises(ValueError):
            betti(4, 2, -1)


class TestPoincare:
    def test_anchor_table(self):
        assert poincare(4, 2).betti == (1, 1, 2, 1, 1)

    def test_point(self):
        assert poincare(5, 0).betti == (1,)
        assert poincare(5, 5).betti == (1,)

    def test_total_rank_is_binomial(self):
        assert sum(poincare(4, 2).betti) == 6
        for n in range(1, 13):
            for k in range(n + 1):
                assert sum(poincare(n, k).betti) == comb(n, k)

    def test_palindromic(self):
        for n, k in [(6, 3), (9, 4), (12, 5)]:
            table = poincare(n, k).betti
            assert table == table[::-1]

    def test_dim_and_length(self):
        table = poincare(7, 3)
        assert isinstance(table, PoincareTable)
        assert table.dim == 12
        assert len(table.betti) == 13
        assert table.betti[0] == 1

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidDimensions):
            poincare(3, 4)


class TestGaussianBinomial:
    def test_extremes_are_points(self):
        assert gaussian_binomial(9, 9) == (1,)
        assert gaussian_binomial(9, 0) == (1,)

    def test_anchor(self):
        # (1-q^3)(1-q^4) / ((1-q)(1-q^2))
        assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)

    def test_matches_poincare_tables(self):
        for n in range(1, 25):
            for k in range(n + 1):
                assert gaussian_binomial(n, k) == poincare(n, k).betti, (n, k)

    def test_pascal_recurrence(self):
        # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
        for n in range(2, 10):
            for k in range(1, n):
                left = list(gaussian_binomial(n - 1, k - 1))
                right = list(gaussian_binomial(n - 1, k))
                width = k * (n - k) + 1
                combined = [0] * width
                for i, v in enumerate(left):
                    combined[i] += v
                for i, v in enumerate(right):
                    combined[i + k] += v
                assert combined == list(gaussian_binomial(n, k))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidDimensions):
            gaussian_binomial(4, 5)
        with pytest.raises(InvalidDimensions, match="plane dimension"):
            gaussian_binomial(0, 1)
        with pytest.raises(InvalidDimensions, match="integer >= 0, got -1"):
            gaussian_binomial(-1, 0)

    def test_empty_box(self):
        # [0 choose 0]_q = 1, as the kernels count the 0 x 0 box, while the
        # manifold queries still need n >= 1
        assert gaussian_binomial(0, 0) == (1,)
        assert count_box(0, 0, 0) == 1
        assert _dispatch.box_table(0, 0) == [1]
        for query in (lambda: betti(0, 0, 0), lambda: poincare(0, 0)):
            with pytest.raises(InvalidDimensions, match="integer >= 1, got 0"):
                query()


class TestGaussianTriangle:
    def test_matches_the_product_formula(self):
        rows = list(gaussian_triangle(24))
        assert [len(row) for row in rows] == list(range(1, 26))
        for n in range(1, 25):
            for k in range(n + 1):
                assert rows[n][k] == gaussian_binomial(n, k), (n, k)

    def test_smallest_triangles(self):
        assert list(gaussian_triangle(0)) == [[(1,)]]
        assert list(gaussian_triangle(2)) == [[(1,)], [(1,), (1,)], [(1,), (1, 1), (1,)]]

    @pytest.mark.parametrize("max_n", [-1, 2.0, True, "3"])
    def test_rejects_bad_limits(self, max_n):
        with pytest.raises(ValueError, match="max_n must be a nonnegative integer"):
            gaussian_triangle(max_n)
