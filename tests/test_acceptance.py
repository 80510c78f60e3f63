"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (written past pytest's capture so
the lines always reach the terminal) and asserts the same condition.
"""

import time
from itertools import accumulate
from math import comb, isqrt
from operator import add, sub

import pytest

from charrank import _dispatch, _kernels_py
from charrank.bounds import UNBOUNDED, BundleProfile, betti_upper_bound
from charrank.cli import main as cli_main
from charrank.grassmannian import gaussian_binomial, poincare
from charrank.identities import verify_sweep
from charrank.oracles import pentagonal_partition_table
from charrank.partitions import PartsSet, count_box, count_total
from charrank.report import Identity

EQ3_GRID = sum(30 - nu + 1 for mu in range(1, 11) for nu in range(1, mu + 1))
EQ5_GRID = sum(30 - k for k in range(1, 9))
BIJECTION_GRID = 36 * 8 * 33
ORACLE_GRID = 7 * 7 * 37 + 63 * 7 * 37
GRASSMANNIAN_GRID = sum(n + 1 for n in range(1, 25))
SHARPNESS_GRID = 8 * 30
CROSSCHECK_GRID = 201


_capture = None


@pytest.fixture(autouse=True)
def _route_past_capture(capsys):
    # pytest captures at the fd level by default, so even sys.__stdout__ is
    # redirected; capsys.disabled() is the supported escape hatch.
    global _capture
    _capture = capsys
    yield
    _capture = None


def _conclude(number, description, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if _capture is None:
        print(line, flush=True)
    else:
        with _capture.disabled():
            # leading newline: terminate pytest's pending progress line so the
            # criterion line always starts at column 0
            print("\n" + line, flush=True)
    assert ok, f"criterion {number} failed{': ' + detail if detail else ''}"


def test_criterion_1_interval_transport_sweep():
    start = time.perf_counter()
    report = verify_sweep(Identity.EQ3)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked == EQ3_GRID and elapsed < 60.0
    _conclude(
        1,
        f"interval-transport sweep (1<=nu<=mu<=10, nu<=j<=30): "
        f"{report.checked} instances, {len(report.failures)} failures, {elapsed:.2f}s",
        ok,
        f"failures={report.failures[:3]}, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_total_vs_box_sum():
    report = verify_sweep(Identity.EQ4)
    # spot anchor: p(3) = 3 decomposes as 1+1+1 across the three box terms
    terms = [count_box(2, s, 3 - s) for s in range(1, 4)]
    ok = report.passed and report.checked == 30 and terms == [1, 1, 1]
    _conclude(
        2,
        f"p(j) as box-count sums for 1<=j<=30: {report.checked} instances, "
        f"{len(report.failures)} failures; anchor p(3)=1+1+1",
        ok,
        f"failures={report.failures[:3]}, terms={terms}",
    )


def test_criterion_3_bounded_parts_tail_sweep():
    report = verify_sweep(Identity.EQ5)
    ok = report.passed and report.checked == EQ5_GRID
    _conclude(
        3,
        f"bounded-parts tail identity (1<=k<=8, k<j<=30): "
        f"{report.checked} instances, {len(report.failures)} failures",
        ok,
        f"failures={report.failures[:3]}",
    )


def test_criterion_4_bijection_round_trips():
    report = verify_sweep(Identity.BIJECTION_ROUND_TRIP)
    ok = report.passed and report.checked == BIJECTION_GRID
    _conclude(
        4,
        f"bijection round trips and cardinality transport "
        f"(nu<=mu<=8, x<=8, j<=32): {report.checked} instances, "
        f"{len(report.failures)} failures",
        ok,
        f"failures={report.failures[:3]}",
    )


def test_criterion_5_counts_match_enumeration():
    report = verify_sweep(Identity.ORACLE_EQUIVALENCE)
    ok = report.passed and report.checked == ORACLE_GRID
    _conclude(
        5,
        f"every count equals its brute-force enumeration (boxes to 6x6, "
        f"sets within {{1..6}}, weights to 36): {report.checked} instances, "
        f"{len(report.failures)} failures",
        ok,
        f"failures={report.failures[:3]}",
    )


def test_criterion_6_grassmannian_tables():
    report = verify_sweep(Identity.GRASSMANNIAN_TABLES)
    spot = poincare(24, 12).betti
    ok = (
        report.passed
        and report.checked == GRASSMANNIAN_GRID
        and spot == tuple(gaussian_binomial(24, 12))
        and spot == spot[::-1]
        and sum(spot) == comb(24, 12)
    )
    _conclude(
        6,
        f"Betti tables vs q-binomial oracle, palindromic, summing to "
        f"binomial(n,k), for all n<=24: {report.checked} tables, "
        f"{len(report.failures)} failures",
        ok,
        f"failures={report.failures[:3]}",
    )


def test_criterion_7_bound_sharpness():
    report = verify_sweep(Identity.BOUND_SHARPNESS)
    # direct spot checks of both regimes
    profile = BundleProfile(UNBOUNDED, PartsSet(range(1, 6)), UNBOUNDED)
    low = betti_upper_bound(profile, 4) == count_total(4)
    tail = betti_upper_bound(profile, 9) == sum(
        count_box(4, s, 9 - s) for s in range(2, 10)
    )
    ok = report.passed and report.checked == SHARPNESS_GRID and low and tail
    _conclude(
        7,
        f"bound attained on free-generator profiles (S={{1..k}}, k<=8, "
        f"j<=30): {report.checked} instances, {len(report.failures)} failures",
        ok,
        f"failures={report.failures[:3]}, low={low}, tail={tail}",
    )


def test_criterion_8_pentagonal_crosscheck():
    start = time.perf_counter()
    report = verify_sweep(Identity.PARTITION_FUNCTION_CROSSCHECK)
    elapsed = time.perf_counter() - start
    spot = count_total(200) == pentagonal_partition_table(200)[200] == 3972999029388
    ok = report.passed and report.checked == CROSSCHECK_GRID and elapsed < 5.0 and spot
    _conclude(
        8,
        f"partition function vs pentagonal recurrence for c<=200: "
        f"{report.checked} weights, {len(report.failures)} failures, "
        f"{elapsed:.2f}s",
        ok,
        f"failures={report.failures[:3]}, elapsed={elapsed:.2f}s",
    )


def _mutant_box_count(a, b, c):
    # boxed-partition DP missing the weight == part transition
    if c == 0:
        return 1
    a, b = min(a, c), min(b, c)
    if a == 0 or b == 0 or c > a * b:
        return 0
    width = c + 1
    table = [0] * ((b + 1) * width)
    for row in range(b + 1):
        table[row * width] = 1
    for v in range(1, a + 1):
        for p in range(1, b + 1):
            base = p * width
            below = base - width
            for w in range(v + 1, width):  # should start at v
                table[base + w] += table[below + w - v]
    return table[b * width + c]


def _mutant_box_table(a, b):
    if a == 0 or b == 0:
        return [1]
    top = a * b
    width = top + 1
    table = [0] * ((b + 1) * width)
    for row in range(b + 1):
        table[row * width] = 1
    for v in range(1, a + 1):
        for p in range(1, b + 1):
            base = p * width
            below = base - width
            for w in range(v, width):
                table[base + w] += table[below + w - v - 1]  # off by one in weight
    return table[b * width:]


def _mutant_set_exact_counts(parts, b, c):
    smax = min(b, c)
    width = c + 1
    table = [0] * ((smax + 1) * width)
    table[0] = 1
    for v in parts:
        if v >= c:  # should be v > c: drops single-part-of-full-weight moves
            break
        for used in range(1, smax + 1):
            base = used * width
            below = base - width
            for w in range(v, width):
                table[base + w] += table[below + w - v]
    out = [table[s * width + c] for s in range(smax + 1)]
    if b > smax:
        out.extend([0] * (b - smax))
    return out


def _mutant_set_any_table(parts, top):
    dp = [1] + [0] * top
    for v in parts:
        for w in range(v + 1, top + 1):  # should start at v: drops the part v alone
            dp[w] += dp[w - v]
    return dp


def _mutant_partition_table(n):
    dp = [0] * (n + 1)
    dp[0] = 1
    for v in range(2, n + 1):  # should start at 1: forgets all-ones refinements
        for w in range(v, n + 1):
            dp[w] += dp[w - v]
    return dp


def _mutant_box_row_first(a, b, width):
    a, b = min(a, b), max(a, b)
    dp = [1] + [0] * (width - 1)
    for g in range(b + 2, min(a + b, width - 1) + 1):  # should start at b + 1
        dp[g:] = map(sub, dp[g:], dp)
    return _kernels_py._accumulate(dp, range(1, a + 1))


def _mutant_box_row_last(a, b, width):
    a, b = min(a, b), max(a, b)
    dp = [1] + [0] * (width - 1)
    for g in range(b + 1, min(a + b, width - 1)):  # should run to min(..) + 1
        dp[g:] = map(sub, dp[g:], dp)
    return _kernels_py._accumulate(dp, range(1, a + 1))


def _mutant_accumulate_residue(dp, parts):
    size = len(dp)
    for v in parts:
        if _kernels_py.CLASS_CUT * v <= size:
            for r in range(1, v):  # should be range(v): skips residue class 0
                dp[r::v] = accumulate(dp[r::v])
        else:
            for w in range(v, size):
                dp[w] += dp[w - v]
    return dp


def _mutant_accumulate_scalar(dp, parts):
    size = len(dp)
    for v in parts:
        if _kernels_py.CLASS_CUT * v <= size:
            for r in range(v):
                dp[r::v] = accumulate(dp[r::v])
        else:
            for w in range(v + 1, size):  # should start at v
                dp[w] += dp[w - v]
    return dp


def _mutant_partition_table_durfee(n):
    # the Durfee-square pure kernel writes each body from weight 2s, not 2s - 1
    table = [1] + [0] * n
    for s in range(isqrt(n), 0, -1):
        body = _kernels_py._accumulate(table[: n + 1 - s * s], (s, s))
        table[2 * s : 2 * s - 1 + len(body)] = body[:-1]  # should start at 2s - 1
    return table


def _mutant_part_rows(parts, rows, width):
    table = [[0] * width for _ in range(rows + 1)]
    table[0][0] = 1
    for v in parts:
        if v >= width:
            break
        below = table[0]
        for row in table[1:]:
            row[v + 1 :] = map(add, row[v + 1 :], below)  # should start at v
            below = row
    return table


def _mutant_part_rows_window(parts, rows, width):
    table = [[0] * width for _ in range(rows + 1)]
    table[0][0] = 1
    for v in parts:
        if v >= width:
            break
        lo, hi = v, v  # should be v + 1: each window stops one short of p * v
        for below, row in zip(table, table[1:]):
            if lo >= width:
                break
            row[lo:hi] = map(add, row[lo:hi], below[lo - v : hi - v])
            lo, hi = lo + parts[0], min(hi + v, width)
    return table


def test_criterion_9_cli_exit_codes_and_mutation(monkeypatch, capsys):
    clean = cli_main(["verify", "all"])
    capsys.readouterr()
    mutants = {
        "box_count": _mutant_box_count,
        "box_table": _mutant_box_table,
        "set_exact_counts": _mutant_set_exact_counts,
        "set_any_table": _mutant_set_any_table,
        "partition_table": _mutant_partition_table,
    }
    # Fast paths of the pure kernels. Every kernel is routed to them first,
    # so the corruption is seen whichever backend _dispatch selected.
    fast_path_mutants = {
        "numerator skips its first factor": (_kernels_py, "_box_row", _mutant_box_row_first),
        "numerator skips its last factor": (_kernels_py, "_box_row", _mutant_box_row_last),
        "1-D residue branch": (_kernels_py, "_accumulate", _mutant_accumulate_residue),
        "1-D scalar branch": (_kernels_py, "_accumulate", _mutant_accumulate_scalar),
        "2-D row helper": (_kernels_py, "_part_rows", _mutant_part_rows),
        "2-D row window": (_kernels_py, "_part_rows", _mutant_part_rows_window),
        "Durfee-square shift": (_dispatch, "partition_table", _mutant_partition_table_durfee),
    }
    codes = {}
    for name, broken in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(_dispatch, name, broken)
            codes[name] = cli_main(["verify", "all"])
            capsys.readouterr()
    for name, (module, attr, broken) in fast_path_mutants.items():
        with monkeypatch.context() as patch:
            for kernel in mutants:
                patch.setattr(_dispatch, kernel, getattr(_kernels_py, kernel))
            patch.setattr(module, attr, broken)
            codes[name] = cli_main(["verify", "all"])
            capsys.readouterr()
    ok = clean == 0 and all(code == 1 for code in codes.values())
    _conclude(
        9,
        f"verify all exits 0 clean; each corrupted DP kernel or fast path "
        f"exits 1 (exit codes: {codes})",
        ok,
        f"clean={clean}, mutants={codes}",
    )
