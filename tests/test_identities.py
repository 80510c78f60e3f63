import pytest

from charrank import _dispatch, _kernels_py
from charrank.errors import CapExceeded, PreconditionViolation
from charrank.identities import (
    SWEEP_ORDER,
    default_grid,
    run_all,
    verify_eq3,
    verify_eq4,
    verify_eq5,
    verify_sweep,
)
from charrank.partitions import count_box, count_set_at_most, count_total, enumerate_box
from charrank.bounds import monomial_count
from charrank.report import Identity, VerificationReport


class TestEq3:
    def test_anchor_instance(self):
        report = verify_eq3(2, 4, 8)
        assert report.passed
        assert report.checked == 1
        # pin the common value both sides take: partitions of 8 from
        # {2,3,4} are 4+4, 4+2+2, 3+3+2, 2+2+2+2
        assert count_set_at_most({2, 3, 4}, 4, 8) == 4

    def test_single_value_interval(self):
        for nu, m in [(1, 5), (3, 2), (4, 4)]:
            assert verify_eq3(nu, nu, nu * m).passed

    def test_weight_below_minimum(self):
        report = verify_eq3(3, 5, 2)
        assert report.passed
        assert count_set_at_most({3, 4, 5}, 0, 2) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_eq3(0, 2, 5)
        with pytest.raises(ValueError):
            verify_eq3(3, 2, 5)
        with pytest.raises(ValueError):
            verify_eq3(1, 2, 0)


class TestEq4:
    @pytest.mark.parametrize("j,expected_terms", [(1, [1]), (3, [1, 1, 1])])
    def test_anchors(self, j, expected_terms):
        assert verify_eq4(j).passed
        terms = [count_box(j - 1, s, j - s) for s in range(1, j + 1)]
        assert terms == expected_terms
        assert sum(terms) == count_total(j)

    def test_five_partitions_of_four(self):
        assert verify_eq4(4).passed
        assert count_total(4) == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_eq4(0)


class TestEq5:
    def test_anchor(self):
        report = verify_eq5(2, 4)
        assert report.passed
        terms = [count_box(1, s, 4 - s) for s in range(2, 5)]
        assert terms == [1, 1, 1]

    def test_single_part_width(self):
        for j in range(2, 9):
            assert verify_eq5(1, j).passed

    def test_three_by_five(self):
        assert verify_eq5(3, 5).passed
        assert count_set_at_most(range(1, 4), 5, 5) == 5

    def test_requires_weight_above_k(self):
        with pytest.raises(PreconditionViolation):
            verify_eq5(3, 3)
        with pytest.raises(PreconditionViolation):
            verify_eq5(4, 2)

    def test_rhs_matches_monomial_count(self):
        from charrank.partitions import PartsSet

        for k in range(1, 6):
            for j in range(k + 1, 16):
                first = -(-j // k)
                rhs = sum(count_box(k - 1, s, j - s) for s in range(first, j + 1))
                assert rhs == monomial_count(PartsSet(range(1, k + 1)), j)

    def test_any_parts_form_catches_a_defective_inert_route(self, monkeypatch):
        true_box = _dispatch.box_count

        def corrupted(a, b, c):
            value = true_box(a, b, c)
            return value + 1 if b == c else value

        monkeypatch.setattr(_dispatch, "box_count", corrupted)
        report = verify_sweep("eq5", {"max_k": 3, "max_j": 8})
        checks = {dict(failure.params)["check"] for failure in report.failures}
        assert "any-parts form" in checks

    def test_any_parts_form_catches_a_defective_set_any_route(self, monkeypatch):
        # the left side counts on the 1-D set-any row; the any-parts form
        # holds it against the 2-D set-exact table, which stays sound here
        true_count = _dispatch.set_any_count

        def corrupted(parts, weight):
            return true_count(parts, weight) + 1

        monkeypatch.setattr(_dispatch, "set_any_count", corrupted)
        report = verify_sweep("eq5", {"max_k": 3, "max_j": 8})
        checks = {dict(failure.params)["check"] for failure in report.failures}
        assert "any-parts form" in checks


class TestVerifySweep:
    def test_accepts_identity_or_value(self):
        by_enum = verify_sweep(Identity.EQ4, {"max_j": 6})
        by_value = verify_sweep("eq4", {"max_j": 6})
        assert by_enum.checked == by_value.checked == 6
        assert by_enum.passed and by_value.passed

    def test_checked_matches_grid_size(self):
        report = verify_sweep(Identity.EQ3, {"max_mu": 4, "max_j": 10})
        grid = sum(10 - nu + 1 for mu in range(1, 5) for nu in range(1, mu + 1))
        assert report.checked == grid

    def test_eq5_fixed_k(self):
        report = verify_sweep(Identity.EQ5, {"k": 3, "max_j": 10})
        assert report.checked == 7  # j from 4 to 10
        assert report.swept_ranges["k"] == "3"

    def test_empty_grid_is_an_error(self):
        with pytest.raises(ValueError, match="empty parameter grid"):
            verify_sweep(Identity.EQ5, {"k": 2, "max_j": 1})
        with pytest.raises(ValueError, match="empty parameter grid"):
            verify_sweep(Identity.EQ4, {"max_j": 0})

    def test_eq5_zero_degrees_is_an_error(self):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            verify_sweep(Identity.EQ5, {"k": 0})

    def test_unknown_range_key_is_an_error(self):
        with pytest.raises(ValueError, match="unknown range"):
            verify_sweep(Identity.EQ4, {"max_mu": 5})

    def test_unknown_identity_is_an_error(self):
        with pytest.raises(ValueError):
            verify_sweep("eq7")

    def test_report_shape(self):
        report = verify_sweep(Identity.BIJECTION_ROUND_TRIP, {"max_mu": 3, "max_x": 2, "max_j": 6})
        assert isinstance(report, VerificationReport)
        assert report.identity_id is Identity.BIJECTION_ROUND_TRIP
        assert report.checked == 6 * 2 * 7
        assert report.swept_ranges == {"max_j": "6", "max_mu": "3", "max_x": "2"}
        assert report.status == "pass"

    def test_small_oracle_sweep(self):
        report = verify_sweep(
            Identity.ORACLE_EQUIVALENCE,
            {"max_part": 3, "max_parts": 3, "max_weight": 9},
        )
        assert report.passed
        # 4*4*10 box instances plus 7 subsets * 4 * 10 set instances
        assert report.checked == 160 + 280

    def test_oracle_cap_error_is_the_first_refused_instance(self):
        # the sweep checks a whole (max_part, max_parts) cell at once: every
        # weight of the cell, in order, against the enumerators' cap, before
        # it counts
        def first_refusal():
            for a in range(12):
                for b in range(7):
                    for c in range(13):
                        try:
                            enumerate_box(a, b, c)
                        except CapExceeded as exc:
                            return str(exc)

        grid = {"max_part": 11, "max_parts": 6, "max_weight": 12}
        with pytest.raises(CapExceeded) as caught:
            verify_sweep(Identity.ORACLE_EQUIVALENCE, grid)
        assert str(caught.value) == first_refusal() == (
            "enumeration box 11x6 exceeds the cap of 64; raise `cap` to insist"
        )

    def test_small_grassmannian_sweep(self):
        report = verify_sweep(Identity.GRASSMANNIAN_TABLES, {"max_n": 8})
        assert report.passed
        assert report.checked == sum(n + 1 for n in range(1, 9))

    def test_small_sharpness_sweep(self):
        report = verify_sweep(Identity.BOUND_SHARPNESS, {"max_k": 3, "max_j": 12})
        assert report.passed
        assert report.checked == 36

    def test_default_grid_is_a_copy(self):
        grid = default_grid("eq5")
        assert grid == default_grid(Identity.EQ5) == {"max_k": 8, "k": None, "max_j": 30}
        grid["max_j"] = 5
        assert default_grid(Identity.EQ5)["max_j"] == 30
        assert verify_sweep(Identity.EQ5).swept_ranges["max_j"] == "30"

    def test_small_partition_crosscheck(self):
        report = verify_sweep(Identity.PARTITION_FUNCTION_CROSSCHECK, {"max_weight": 40})
        assert report.passed
        assert report.checked == 41

    def test_an_uncertified_series_is_a_failed_check(self, monkeypatch):
        # a remainder bound of up to 1 leaves the series unable to certify
        monkeypatch.setattr(_kernels_py, "TAIL_BUDGETS", (64,))
        report = verify_sweep(Identity.PARTITION_FUNCTION_CROSSCHECK, {"max_weight": 40})
        assert report.checked == 41
        [failure] = report.failures
        assert failure.params == (("weight", 40), ("check", "series"))
        assert "not within its error bound" in failure.lhs
        assert failure.rhs == 37338


class TestRunAll:
    def test_runs_every_identity_once(self):
        reports = run_all(
            {
                Identity.EQ3: {"max_mu": 3, "max_j": 8},
                Identity.EQ5: {"max_k": 2, "max_j": 8},
                Identity.BIJECTION_ROUND_TRIP: {"max_mu": 3, "max_x": 3, "max_j": 8},
                Identity.ORACLE_EQUIVALENCE: {"max_part": 3, "max_parts": 3, "max_weight": 9},
                Identity.GRASSMANNIAN_TABLES: {"max_n": 6},
                Identity.BOUND_SHARPNESS: {"max_k": 3, "max_j": 8},
                Identity.PARTITION_FUNCTION_CROSSCHECK: {"max_weight": 30},
            }
        )
        assert tuple(r.identity_id for r in reports) == SWEEP_ORDER
        assert all(r.passed for r in reports)
        assert all(r.checked >= 1 for r in reports)

    def test_accepts_string_keys(self):
        small = {
            "eq3": {"max_mu": 2, "max_j": 3},
            "eq4": {"max_j": 3},
            "eq5": {"max_k": 2, "max_j": 4},
            "bijection": {"max_mu": 2, "max_x": 2, "max_j": 4},
            "oracle": {"max_part": 2, "max_parts": 2, "max_weight": 4},
            "grassmannian-tables": {"max_n": 3},
            "sharpness": {"max_k": 2, "max_j": 4},
            "partition-function": {"max_weight": 10},
        }
        reports = run_all(small)
        assert [r.checked for r in reports] == [
            verify_sweep(identity, small[identity.value]).checked for identity in SWEEP_ORDER
        ]
        assert reports[0].checked == 8  # 1 <= nu <= mu <= 2, nu <= j <= 3

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ValueError, match="bogus"):
            run_all({"eq3": {"max_mu": 2, "max_j": 3}, "bogus": {}})
