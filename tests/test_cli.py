import csv
import io
import json
import re
import subprocess
import sys
import time

import pytest
from sympy.functions.combinatorial.numbers import partition as sympy_partition

from charrank import _dispatch, bijection
from charrank.cli import main
from charrank.identities import RANGE_KEYS, SWEEP_ORDER, default_grid, verify_sweep
from charrank.report import Identity

from _backends import ROWS, SERIES, forbid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """Exit code, output, error output and peak resident memory in kB (on
    Linux) of ``python -m charrank`` with ``argv``: the command is the
    probe's only child, so RUSAGE_CHILDREN is the command's peak."""
    probe = (
        "import json, resource, subprocess, sys\n"
        "out = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([out.returncode, out.stdout, out.stderr, peak]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "charrank", *argv],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _corrupt_box_sum(monkeypatch):
    """Make the box sum for parts {1..3} at weight 6 one too large, so eq3
    fails."""
    true_sum = _dispatch.box_sum

    def corrupted(lo, hi, weight):
        value = true_sum(lo, hi, weight)
        return value + 1 if (lo, hi, weight) == (1, 3, 6) else value

    monkeypatch.setattr(_dispatch, "box_sum", corrupted)


class TestCount:
    def test_total(self, capsys):
        code, out, err = run_cli(capsys, "count", "total", "5")
        assert (code, out, err) == (0, "7\n", "")

    def test_box(self, capsys):
        code, out, _ = run_cli(capsys, "count", "box", "3", "2", "7")
        assert (code, out) == (0, "0\n")

    def test_set_exact(self, capsys):
        code, out, _ = run_cli(capsys, "count", "set-exact", "--parts", "1,2", "2", "3")
        assert (code, out) == (0, "1\n")

    def test_set_any(self, capsys):
        code, out, _ = run_cli(capsys, "count", "set-any", "--parts", "1,2", "4")
        assert (code, out) == (0, "3\n")

    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "count", "total", "5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "command": "count",
            "params": {"subject": "total", "weight": "5"},
            "results": {"value": "7"},
            "status": "ok",
        }

    def test_csv_record(self, capsys):
        code, out, _ = run_cli(capsys, "count", "total", "5", "--format", "csv")
        assert (code, out) == (0, "value\n7\n")

    def test_large_value_stays_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "count", "total", "500", "--format", "json")
        value = json.loads(out)["results"]["value"]
        assert value == "2300165032574323995027"

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "count", "box", "3", "2")
        assert code == 2
        assert "WEIGHT" in err

    def test_malformed_parts(self, capsys):
        code, _, _ = run_cli(capsys, "count", "set-exact", "--parts", "2,1", "2", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "count", "set-exact", "--parts", "a,b", "2", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "count", "set-exact", "--parts", "0,1", "2", "3")
        assert code == 2

    def test_negative_weight(self, capsys):
        code, _, _ = run_cli(capsys, "count", "total", "-3")
        assert code == 2

    def test_total_of_a_million_without_a_table(self, capsys, monkeypatch):
        # the Rademacher series, where the Durfee table would hold 10**6
        # big integers
        forbid(monkeypatch, "partition_table", module=_dispatch)
        forbid(monkeypatch, "partition_table", *ROWS)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "total", "1000000")
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (0, f"{sympy_partition(10**6)}\n", "")
        assert elapsed < 2.0

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_total_past_the_digit_limit_of_str(self, capsys):
        # p(400000) has 684 digits, past the least limit str() may have
        expected = f"{sympy_partition(400000)}\n"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "count", "total", "400000")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (0, expected, "")

    def test_oversized_table_is_a_usage_error(self, capsys, monkeypatch):
        # 100000 parts from {1, 2, 3} reach weight 200000, on a table of
        # 100001 x 200001 cells
        forbid(monkeypatch, *ROWS)
        args = ("count", "set-exact", "--parts", "1,2,3", "100000", "200000")
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "exceeds the limit" in err

    def test_unreachable_set_any_weight_is_zero_in_little_memory(self):
        # no part is at most the weight, so no row of 3 * 10**7 weights is
        # built: it took 472 MB
        *result, peak = run_child("count", "set-any", "--parts", "1000000000", "30000000")
        assert result == [0, "0\n", ""]
        assert peak < 30 * 1024

    def test_unreachable_set_exact_weight_is_zero_without_a_table(self, capsys, monkeypatch):
        # 100000 parts of at most 3 weigh at most 300000
        forbid(monkeypatch, *ROWS)
        args = ("count", "set-exact", "--parts", "1,2,3", "100000", "1000000")
        assert run_cli(capsys, *args) == (0, "0\n", "")

    @pytest.mark.parametrize(
        "args",
        [
            ("count", "box", "1000000", "1000000", "1000000"),
            ("count", "set-any", "--parts", "1,2,3", "20000000"),
            ("bound", "--set", "1,2,3", "--dim", "inf", "--charrank", "inf", "--degree", "20000000"),
            (
                "bound", "--set", "1,2,3", "--dim", "inf", "--charrank", "inf",
                "--degree", "20000000", "--gapless",
            ),
        ],
    )
    def test_oversized_1d_work_is_a_usage_error(self, capsys, monkeypatch, args):
        # each adds 3 or more parts to a row of 10**6 or more weights
        forbid(monkeypatch, *ROWS)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert "exceeds the limit" in err

    def test_oversized_series_is_a_usage_error(self, capsys, monkeypatch):
        # the series for p(10**8) is priced as a row of 10**8 + 1 weights
        forbid(monkeypatch, *ROWS, *SERIES)
        code, out, err = run_cli(capsys, "count", "total", "100000000")
        assert (code, out) == (2, "")
        assert "exceeds the limit" in err


class TestBetti:
    def test_oversized_table_is_a_usage_error(self, capsys, monkeypatch):
        # 50000 x 50000 box counts, past MAX_TABLE_CELLS
        forbid(monkeypatch, *ROWS)
        code, out, err = run_cli(capsys, "betti", "100000", "50000")
        assert (code, out) == (2, "")
        assert "exceeds the limit" in err

    def test_half_row_past_the_limit_is_a_usage_error(self, capsys, monkeypatch):
        # 250001 weights times 500 parts: the whole table is refused by the
        # rule that refuses its middle degree, betti 1000 500 125000
        forbid(monkeypatch, *ROWS)
        for argv in (("betti", "1000", "500"), ("betti", "1000", "500", "125000")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "exceeds the limit" in err

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "4", "2")
        assert (code, out) == (0, "1 1 2 1 1\n")

    def test_single_degree(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "4", "2", "2")
        assert (code, out) == (0, "2\n")

    def test_degree_beyond_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "2", "1", "5")
        assert (code, out) == (0, "0\n")

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "4", "2", "--format", "csv")
        assert (code, out) == (0, "degree,value\n0,1\n1,1\n2,2\n3,1\n4,1\n")

    def test_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "4", "2", "--format", "json")
        record = json.loads(out)
        assert record["results"]["betti"] == ["1", "1", "2", "1", "1"]
        assert record["params"] == {"n": "4", "k": "2"}

    def test_k_exceeding_n(self, capsys):
        code, _, err = run_cli(capsys, "betti", "2", "5", "1")
        assert code == 2
        assert "error:" in err


class TestBound:
    def test_sparse_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--set", "1,2,4", "--dim", "inf", "--charrank", "inf",
            "--degree", "4",
        )
        assert (code, out) == (0, "4\n")

    def test_parity_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--set", "2", "--dim", "inf", "--charrank", "inf",
            "--degree", "7",
        )
        assert (code, out) == (0, "0\n")

    def test_gapless_matches_general(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--set", "1,2", "--dim", "inf", "--charrank", "inf",
            "--degree", "4", "--gapless",
        )
        assert (code, out) == (0, "3\n")
        code, out, _ = run_cli(
            capsys, "bound", "--set", "1,2", "--dim", "inf", "--charrank", "inf",
            "--degree", "4",
        )
        assert (code, out) == (0, "3\n")

    def test_degree_beyond_charrank(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--set", "1,2", "--dim", "inf", "--charrank", "3",
            "--degree", "5",
        )
        assert code == 2
        assert "error:" in err

    def test_gapped_set_with_gapless_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--set", "1,3", "--dim", "inf", "--charrank", "inf",
            "--degree", "5", "--gapless",
        )
        assert code == 2
        assert "error:" in err

    def test_finite_dim_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--set", "1,2", "--dim", "9", "--charrank", "6",
            "--degree", "4", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["params"]["dim"] == "9"
        assert record["params"]["charrank"] == "6"
        assert record["results"]["value"] == "3"

    def test_bad_extent_literal(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--set", "1", "--dim", "lots", "--charrank", "inf",
            "--degree", "1",
        )
        assert code == 2


class TestVerify:
    def test_eq4_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq4", "--max-j", "12")
        assert code == 0
        assert "eq4: pass (checked=12, failures=0)" in out
        assert out.endswith("overall: pass\n")

    def test_grassmannian_sweep_holds_one_row_of_the_triangle(self):
        # the whole q-Pascal triangle to n = 60 peaked at 36 MB, about
        # 18 MB over the interpreter and the import; one row at a time the
        # command peaks near 18 MB (CPython 3.11, x86-64)
        *result, peak = run_child("verify", "grassmannian-tables", "--max-n", "60")
        out = "grassmannian-tables: pass (checked=1890, failures=0)\noverall: pass\n"
        assert result == [0, out, ""]
        assert peak < 26 * 1024

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "eq3", "--max-mu", "3", "--max-j", "6", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "pass"
        (report,) = record["results"]["reports"]
        assert report["identity"] == "eq3"
        assert report["failures"] == []
        assert report["swept_ranges"] == {"max_mu": "3", "max_j": "6"}
        assert int(report["checked"]) >= 1

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "eq4", "--max-j", "9", "--format", "csv"
        )
        assert (code, out) == (0, "identity,checked,failures,status\neq4,9,0,pass\n")

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "eq5", "--max-k", "1", "--max-j", "1")
        assert code == 2
        assert "empty parameter grid" in err

    def test_eq5_zero_k_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "eq5", "--max-k", "0")
        assert code == 2
        assert "empty parameter grid" in err
        # eq5 takes no single k: --max-k bounds its grid
        code, _, err = run_cli(capsys, "verify", "eq5", "--k", "3")
        assert code == 2
        assert "unrecognized arguments: --k 3" in err

    def test_unknown_range_flag_for_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "eq4", "--max-mu", "4")
        assert code == 2
        assert "unknown range" in err

    def test_unknown_identity(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "eq9")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("bijection", "--max-mu", "9", "--max-x", "8", "--max-j", "10"),
            ("oracle", "--max-part", "11", "--max-parts", "6", "--max-weight", "12"),
        ],
    )
    def test_enumeration_cap_names_the_range_flags(self, capsys, flags):
        # the library's remedy is its `cap` argument, which verify has no flag for
        code, out, err = run_cli(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert err.endswith("exceeds the cap of 64; lower the range flags\n")
        assert "`cap`" not in err

    @pytest.mark.parametrize("argv", [("verif", "all"), ("verif", "eq4", "--max-j", "3")])
    def test_abbreviated_command_is_a_usage_error(self, capsys, argv):
        # the verify flags are built only when the command line names
        # `verify`, so an abbreviation must not reach that subparser
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        usage, message = err.splitlines()
        assert usage == "usage: charrank [-h] {count,betti,bound,verify} ..."
        assert message.startswith("charrank: error: argument command: invalid choice: 'verif'")

    def test_all_checks_every_default_instance(self, capsys):
        # each sweep's instance count at its default grid, in SWEEP_ORDER:
        # a sweep that skipped instances would still pass
        counts = (1485, 30, 204, 9504, 18130, 324, 240, 201)
        code, out, _ = run_cli(capsys, "verify", "all")
        assert (code, out) == (
            0,
            "".join(
                f"{identity.value}: pass (checked={checked}, failures=0)\n"
                for identity, checked in zip(SWEEP_ORDER, counts, strict=True)
            )
            + "overall: pass\n",
        )

    def test_all_rejects_range_flags(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--max-j", "5")
        assert code == 2
        assert "error:" in err

    def test_failure_exits_one_and_lists_counterexamples(self, capsys, monkeypatch):
        _corrupt_box_sum(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "eq3", "--max-mu", "5", "--max-j", "8")
        assert code == 1
        assert "eq3: fail" in out
        assert "!=" in out
        assert out.endswith("overall: fail\n")

    # The full `verify bijection --max-mu 4 --max-x 3 --max-j 8` output
    # under each injected defect, as the per-weight sweep printed it.
    BIJECTION_FLAGS = ("verify", "bijection", "--max-mu", "4", "--max-x", "3", "--max-j", "8")

    @staticmethod
    def _bijection_failures(cells):
        """(text lines, JSON failures) of one (min_part, max_part, weight,
        check, element, lhs, rhs) row per failure, all with 3 parts."""
        lines, records = [], []
        for lo, hi, weight, check, element, lhs, rhs in cells:
            params = {
                "min_part": str(lo),
                "max_part": str(hi),
                "weight": str(weight),
                "num_parts": "3",
                "check": check,
            }
            if element:
                params[element[0]] = element[1]
            shown = ", ".join(f"{k}={v}" for k, v in params.items())
            lines.append(f"  [{shown}] {lhs} != {rhs}\n")
            records.append({"params": params, "lhs": lhs, "rhs": rhs})
        return lines, records

    def _assert_bijection_output(self, capsys, cells):
        lines, records = self._bijection_failures(cells)
        code, out, _ = run_cli(capsys, *self.BIJECTION_FLAGS)
        assert code == 1
        assert out == (
            f"bijection: fail (checked=270, failures={len(lines)})\n"
            + "".join(lines)
            + "overall: fail\n"
        )
        code, out, _ = run_cli(capsys, *self.BIJECTION_FLAGS, "--format", "json")
        ranges = {"max_j": "8", "max_mu": "4", "max_x": "3"}
        record = {
            "command": "verify",
            "params": {"identity": "bijection", "max-j": "8", "max-mu": "4", "max-x": "3"},
            "results": {
                "reports": [
                    {
                        "identity": "bijection",
                        "swept_ranges": ranges,
                        "checked": "270",
                        "failures": records,
                        "status": "fail",
                    }
                ]
            },
            "status": "fail",
        }
        assert code == 1
        assert out == json.dumps(record, indent=2) + "\n"

    def test_defective_enumeration_is_a_failure(self, capsys, monkeypatch):
        true_enumerate = bijection._set_exact_parts

        def defective(members, num_parts, lo, hi, cap):
            found = true_enumerate(members, num_parts, lo, hi, cap)
            if (members, num_parts) == ((2, 3, 4), 3) and lo <= 8 <= hi:
                found[8 - lo].append((5, 2, 1))
            return found

        monkeypatch.setattr(bijection, "_set_exact_parts", defective)
        code, out, _ = run_cli(capsys, *self.BIJECTION_FLAGS)
        assert code == 1
        assert "bijection: fail" in out
        assert "p=Partition([5, 2, 1])] part 5 falls outside [2, 4]" in out
        self._assert_bijection_output(capsys, [
            (2, 4, 8, "cardinality", None, "3", "2"),
            (2, 4, 8, "precondition", ("p", "Partition([5, 2, 1])"),
             "part 5 falls outside [2, 4]", "satisfied"),
        ])

    def test_defective_reduced_side_is_a_failure(self, capsys, monkeypatch):
        true_enumerate = bijection._box_parts

        def defective(max_part, max_parts, lo, hi, cap):
            found = true_enumerate(max_part, max_parts, lo, hi, cap)
            if (max_part, max_parts) == (2, 3) and lo <= 2 <= hi:
                found[2 - lo].append((9,))
            return found

        monkeypatch.setattr(bijection, "_box_parts", defective)
        report = bijection.verify_bijection(2, 4, 8, 3)
        checks = [dict(failure.params)["check"] for failure in report.failures]
        assert checks == ["cardinality", "preimage membership"]
        assert (report.failures[0].lhs, report.failures[0].rhs) == (2, 3)
        code, out, _ = run_cli(capsys, *self.BIJECTION_FLAGS)
        assert code == 1
        assert "bijection: fail" in out
        assert "q=Partition([9])] Partition([11, 2, 2]) != original side" in out
        nine = ("q", "Partition([9])")
        self._assert_bijection_output(capsys, [
            (1, 3, 5, "cardinality", None, "2", "3"),
            (1, 3, 5, "preimage membership", nine, "Partition([10, 1, 1])", "original side"),
            (2, 4, 8, "cardinality", None, "2", "3"),
            (2, 4, 8, "preimage membership", nine, "Partition([11, 2, 2])", "original side"),
        ])

    def test_help_lists_every_identity_and_range_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # keep the choices on one line
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        listed = out.split("one of: ")[1].splitlines()[0].split(", ")
        assert listed == [identity.value for identity in Identity] + ["all"]
        for key in RANGE_KEYS:
            assert "--" + key.replace("_", "-") in out

    def test_help_names_the_identities_of_each_range_flag(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--help")
        # one entry per option: its line and the indented help lines below it
        entries = re.split(r"\n(?=  -)", out.split("options:")[1])[1:]
        entries = {entry.split()[0]: entry for entry in entries}
        for key in RANGE_KEYS:
            entry = entries["--" + key.replace("_", "-")]
            named = re.findall(r"([\w-]+)\s+\(default\s+(\w+)\)", entry)
            expected = [
                (identity.value, str(default_grid(identity)[key]))
                for identity in SWEEP_ORDER
                if key in default_grid(identity)
            ]
            assert named == expected


BOUND_ARGS = ("bound", "--dim", "inf", "--charrank", "9", "--degree", "4")
VALUE_HEADER = ["value"]
VERIFY_HEADER = ["identity", "checked", "failures", "status"]


@pytest.mark.parametrize(
    "argv,header,corrupt",
    [
        pytest.param(("count", "box", "3", "2", "5"), VALUE_HEADER, False, id="box"),
        pytest.param(
            ("count", "set-exact", "--parts", "1,2", "2", "3"), VALUE_HEADER, False,
            id="set-exact",
        ),
        pytest.param(
            ("count", "set-any", "--parts", "1,2", "4"), VALUE_HEADER, False, id="set-any"
        ),
        pytest.param(("count", "total", "9"), VALUE_HEADER, False, id="total"),
        pytest.param(("betti", "6", "3", "4"), VALUE_HEADER, False, id="betti-degree"),
        pytest.param(("betti", "5", "2"), ["degree", "value"], False, id="betti-table"),
        pytest.param(BOUND_ARGS + ("--set", "1,2,4"), VALUE_HEADER, False, id="bound"),
        pytest.param(
            BOUND_ARGS + ("--set", "1,2", "--gapless"), VALUE_HEADER, False, id="bound-gapless"
        ),
        pytest.param(("verify", "eq4", "--max-j", "9"), VERIFY_HEADER, False, id="verify-pass"),
        pytest.param(
            ("verify", "eq3", "--max-mu", "5", "--max-j", "8"), VERIFY_HEADER, True,
            id="verify-fail",
        ),
    ],
)
def test_every_format_carries_the_record(capsys, monkeypatch, argv, header, corrupt):
    """Text, CSV and JSON show the same values, and the exit code is 1
    exactly when the record's status is ``fail``."""
    if corrupt:
        _corrupt_box_sum(monkeypatch)
    runs = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("text", "json", "csv")}
    codes = {fmt: code for fmt, (code, _, _) in runs.items()}
    record = json.loads(runs["json"][1])
    assert codes == dict.fromkeys(runs, 1 if record["status"] == "fail" else 0)
    assert record["status"] == ("fail" if corrupt else "pass" if argv[0] == "verify" else "ok")

    results = record["results"]
    if "reports" in results:
        reports = results["reports"]
        rows = [
            [rep["identity"], rep["checked"], str(len(rep["failures"])), rep["status"]]
            for rep in reports
        ]
        lines = runs["text"][1].splitlines()
        for rep in reports:
            assert (
                f"{rep['identity']}: {rep['status']} "
                f"(checked={rep['checked']}, failures={len(rep['failures'])})"
            ) in lines
        assert lines[-1] == f"overall: {record['status']}"
    elif "betti" in results:
        rows = [[str(degree), value] for degree, value in enumerate(results["betti"])]
        assert runs["text"][1] == " ".join(results["betti"]) + "\n"
    else:
        rows = [[results["value"]]]
        assert runs["text"][1] == results["value"] + "\n"
    table = list(csv.reader(io.StringIO(runs["csv"][1])))
    assert table == [header] + rows


# A small value for every range parameter, each unlike its default, so a
# flag that did not reach its sweep would change the count.
TINY_RANGES = {
    "max_mu": 3,
    "max_j": 7,
    "max_k": 3,
    "max_x": 2,
    "max_part": 2,
    "max_parts": 3,
    "max_weight": 5,
    "max_n": 4,
}


def _range_flag_cases():
    """Per identity, its grid bounds at their TINY_RANGES values."""
    return [
        pytest.param(identity, {key: TINY_RANGES[key] for key in default_grid(identity)},
                     id=identity.value)
        for identity in SWEEP_ORDER
    ]


def test_tiny_ranges_cover_every_range_key():
    assert set(TINY_RANGES) == set(RANGE_KEYS)
    for identity in SWEEP_ORDER:
        for key, default in default_grid(identity).items():
            assert TINY_RANGES[key] != default


@pytest.mark.parametrize("identity,ranges", _range_flag_cases())
def test_range_flags_reach_the_sweep(capsys, identity, ranges):
    argv = ["verify", identity.value, "--format", "csv"]
    for key, value in ranges.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    code, out, _ = run_cli(capsys, *argv)
    checked = verify_sweep(identity, ranges).checked
    assert (code, out) == (
        0,
        f"identity,checked,failures,status\n{identity.value},{checked},0,pass\n",
    )


class TestOutputHandling:
    def test_output_file_verbatim(self, capsys, tmp_path):
        target = tmp_path / "record.json"
        code = main(
            ["count", "total", "7", "--format", "json", "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        record = json.loads(target.read_text(encoding="utf-8"))
        assert record["results"]["value"] == "15"

    def test_unwritable_output_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "record.txt"
        code, out, err = run_cli(capsys, "count", "total", "5", "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert not target.exists()

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "verify", "eq3", "--max-mu", "4", "--max-j", "9", "--format", "json")
        second = run_cli(capsys, "verify", "eq3", "--max-mu", "4", "--max-j", "9", "--format", "json")
        assert first == second

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_installed_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "charrank", "count", "total", "5"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout == "7\n"

    def test_module_run_reads_sys_argv_for_verify(self):
        # main() reads sys.argv itself, to see whether to build the verify flags
        out = subprocess.run(
            [sys.executable, "-m", "charrank", "verify", "eq4", "--max-j", "3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "identity,checked,failures,status\neq4,3,0,pass\n"
