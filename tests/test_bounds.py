import pytest
from hypothesis import given
from hypothesis import strategies as st

from charrank.bounds import (
    UNBOUNDED,
    BundleProfile,
    betti_upper_bound,
    betti_upper_bound_gapless,
    monomial_count,
)
from charrank.errors import DegreeOutOfRange, NotGapless, PreconditionViolation
from charrank.grassmannian import gaussian_binomial
from charrank.partitions import PartsSet, count_set_any, count_total

from _brute import set_exact as brute_set_exact


def free_profile(members):
    return BundleProfile(UNBOUNDED, PartsSet(members), UNBOUNDED)


@pytest.mark.parametrize("degree", [7 * 2**25, 7 * 2**25 + 1])
@pytest.mark.parametrize("member", [1, 7])
def test_one_degree_profile_bounds_by_its_multiples(member, degree):
    # one class degree: its powers give one monomial at each multiple, at
    # degrees far past what the size rule lets a row hold
    profile = free_profile([member])
    expected = int(degree % member == 0)
    assert betti_upper_bound(profile, degree) == expected
    assert betti_upper_bound_gapless(profile, degree) == expected


class TestBundleProfile:
    def test_accepts_unbounded(self):
        profile = free_profile([1, 2])
        assert profile.dim_x == UNBOUNDED
        assert profile.t == UNBOUNDED

    def test_coerces_iterable_set(self):
        profile = BundleProfile(10, [3, 1], 4)
        assert profile.s_set == PartsSet([1, 3])

    def test_finite_consistency(self):
        BundleProfile(6, PartsSet([1, 2]), 6)  # boundary is allowed
        with pytest.raises(PreconditionViolation):
            BundleProfile(6, PartsSet([1, 2]), 7)  # t beyond the dimension
        with pytest.raises(PreconditionViolation):
            BundleProfile(6, PartsSet([1, 7]), 6)  # class degree beyond dimension
        with pytest.raises(PreconditionViolation):
            BundleProfile(6, PartsSet([1, 2]), UNBOUNDED)

    def test_rejects_bad_extents(self):
        with pytest.raises(PreconditionViolation):
            BundleProfile(0, PartsSet([1]), UNBOUNDED)
        with pytest.raises(PreconditionViolation):
            BundleProfile(UNBOUNDED, PartsSet([1]), 0)
        with pytest.raises(PreconditionViolation):
            BundleProfile(3.5, PartsSet([1]), 1)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            BundleProfile(UNBOUNDED, [], UNBOUNDED)


class TestBettiUpperBound:
    def test_initial_segment_attains_all_partitions(self):
        for k in range(1, 7):
            profile = free_profile(range(1, k + 1))
            for j in range(1, k + 1):
                assert betti_upper_bound(profile, j) == count_total(j)

    def test_singleton_divisibility(self):
        profile = free_profile([3])
        assert betti_upper_bound(profile, 9) == 1
        assert betti_upper_bound(profile, 10) == 0

    def test_sparse_anchor(self):
        # partitions of 4 from {1,2,4}: 4, 2+2, 2+1+1, 1+1+1+1
        assert betti_upper_bound(free_profile([1, 2, 4]), 4) == 4

    def test_degree_beyond_t_is_refused(self):
        profile = BundleProfile(20, PartsSet([1, 2]), 5)
        assert betti_upper_bound(profile, 5) == 3  # 2+2+1, 2+1+1+1, 1+1+1+1+1
        with pytest.raises(DegreeOutOfRange):
            betti_upper_bound(profile, 6)
        with pytest.raises(DegreeOutOfRange):
            betti_upper_bound(profile, 0)
        with pytest.raises(DegreeOutOfRange):
            betti_upper_bound_gapless(profile, 6)

    @given(
        st.sets(st.integers(1, 10), min_size=1, max_size=6),
        st.integers(1, 30),
    )
    def test_agrees_with_monomial_count(self, members, degree):
        # both read _dispatch.set_any_count, so the naive recursion summed
        # over the number of parts is the independent check
        profile = free_profile(members)
        brute = sum(brute_set_exact(members, parts, degree) for parts in range(degree + 1))
        assert betti_upper_bound(profile, degree) == monomial_count(profile.s_set, degree) == brute

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=4),
        st.sets(st.integers(1, 9), max_size=4),
        st.integers(1, 24),
    )
    def test_monotone_in_the_degree_set(self, base, extra, degree):
        small = free_profile(base)
        large = free_profile(base | extra)
        assert betti_upper_bound(small, degree) <= betti_upper_bound(large, degree)


class TestGaplessForm:
    def test_agrees_on_gapless_truncations_exhaustively(self):
        for mu in range(1, 11):
            for nu in range(1, mu + 1):
                profile = free_profile(range(nu, mu + 1))
                for j in range(1, 31):
                    assert betti_upper_bound_gapless(profile, j) == betti_upper_bound(
                        profile, j
                    ), (nu, mu, j)

    def test_is_the_sum_of_grassmannian_betti_numbers(self):
        # the paper's sum over s of b_(d - lo*s)(G_s(R^(hi - lo + s))),
        # read off the q-binomial oracle, which shares no code with
        # count_box; s = 0 (the empty box when lo == hi) adds nothing at d >= 1
        for lo in range(1, 9):
            for hi in range(lo, 9):
                profile = free_profile(range(lo, hi + 1))
                for d in range(1, 41):
                    expected = 0
                    for s in range(d // lo + 1):
                        betti = gaussian_binomial(hi - lo + s, s)
                        if d - lo * s < len(betti):
                            expected += betti[d - lo * s]
                    assert betti_upper_bound_gapless(profile, d) == expected, (lo, hi, d)

    def test_singleton(self):
        profile = free_profile([4])
        assert betti_upper_bound_gapless(profile, 8) == 1
        assert betti_upper_bound_gapless(profile, 9) == 0

    def test_anchor(self):
        # partitions of 4 from {1,2}: 2+2, 2+1+1, 1+1+1+1
        assert betti_upper_bound_gapless(free_profile([1, 2]), 4) == 3

    def test_rejects_gapped_truncation(self):
        with pytest.raises(NotGapless):
            betti_upper_bound_gapless(free_profile([1, 3]), 5)

    def test_truncation_can_close_a_gap(self):
        # {1,2,4} is not gapless, but below degree 3 only {1,2} is usable,
        # which is — the check applies to the truncated set
        profile = free_profile([1, 2, 4])
        assert betti_upper_bound_gapless(profile, 3) == betti_upper_bound(profile, 3)
        with pytest.raises(NotGapless):
            betti_upper_bound_gapless(profile, 4)

    def test_no_usable_degrees_gives_zero(self):
        profile = free_profile([5, 6])
        assert betti_upper_bound(profile, 3) == 0
        assert betti_upper_bound_gapless(profile, 3) == 0


class TestMonomialCount:
    def test_initial_segment_is_unrestricted(self):
        for k in range(1, 7):
            for j in range(1, k + 1):
                assert monomial_count(PartsSet(range(1, k + 1)), j) == count_total(j)

    def test_parity_anchor(self):
        assert monomial_count(PartsSet([2]), 7) == 0

    def test_two_generator_anchor(self):
        assert monomial_count(PartsSet([2, 3]), 6) == 2  # 3+3 and 2+2+2

    def test_equals_any_parts_count(self):
        assert monomial_count(PartsSet([2, 5]), 17) == count_set_any({2, 5}, 17)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            monomial_count(PartsSet([1]), 0)
