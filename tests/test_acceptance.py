"""Acceptance criteria, one test per criterion, and guards on the reach of
criterion 9's mutants.

Each criterion test prints a pass/fail line (written past pytest's capture
so the lines always reach the terminal) and asserts the same condition;
criterion 9's test prints one per mutant.
"""

import ast
import os
import shutil
import subprocess
import sys
import time
import types
from importlib import import_module
from math import comb

import pytest

import charrank
from charrank.bounds import UNBOUNDED, BundleProfile, betti_upper_bound
from charrank.grassmannian import gaussian_binomial, poincare
from charrank.errors import DegreeOutOfRange
from charrank.identities import run_all, verify_sweep
from charrank.oracles import pentagonal_partition_table
from charrank.partitions import PartsSet, count_box, count_total
from charrank.report import Identity

from _backends import KERNELS, SRC, build, mutate

EQ3_GRID = sum(30 - nu + 1 for mu in range(1, 11) for nu in range(1, mu + 1))
EQ5_GRID = sum(30 - k for k in range(1, 9))
BIJECTION_GRID = 36 * 8 * 33
ORACLE_GRID = 7 * 7 * 37 + 63 * 7 * 37
GRASSMANNIAN_GRID = sum(n + 1 for n in range(1, 25))
SHARPNESS_GRID = 8 * 30
CROSSCHECK_GRID = 201
#: The two kernel sources: a mutant of either reads its witness in ``_dispatch``.
PY, C = "_kernels_py.py", "_kernels_c.c"
PY_SOURCE = SRC / PY


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
        f"every count equals brute force by itertools multisets (boxes to 6x6, "
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


#: The three bounds on a 2-D slot, as ``set_exact_counts`` states them.
SLOT_BOUNDS = (
    "_apostol_bits(c), (smax - 1) * c.bit_length(), comb(smax + k - 1, k - 1).bit_length()"
)

# Criterion 9's mutants, one table: the file of the package each edits, the
# text it replaces, the replacement, and a witness, an expression on which it
# must disagree with the clean package.  A kernel mutant's witness calls an
# entry point of ``_dispatch``, which serves the mutant in its copy: a copy
# of the pure kernels holds no build, so ``_dispatch`` falls back to them,
# and a copy of the compiled source holds its own.  Any other witness is
# evaluated in the module its mutant edits.  That the clean package's
# ``verify all`` exits 0 is ``test_cli``'s ``test_all_checks_every_default_instance``.
MUTANTS = {
    "box_count": (PY, "if c > a * b:", "if c >= a * b:", "box_count(2, 2, 4)"),
    # A packed row has no slot below weight 0: a fold one short of the
    # mirror reaches weight -1 at c = a*b and raises instead of counting
    # wrong, so this off-by-one points the other way.
    "box_count fold": (  # folds the weight one past its mirror
        PY, "c = min(c, a * b - c)", "c = min(c, a * b - c + 1)", "box_count(2, 3, 5)"
    ),
    "box_table": (  # the lower half stops one weight short
        PY, "_box_row(a, b, top + 1, bits)", "_box_row(a, b, top, bits)", "box_table(2, 2)"
    ),
    "box_table mirror": (  # appends the lower half unreversed
        PY, "half[: (a * b + 1) // 2][::-1]", "half[: (a * b + 1) // 2]", "box_table(2, 3)"
    ),
    "box_sum": (PY, "g = m + s", "g = m + s + 1", "box_sum(1, 3, 6)"),  # the next step's factor
    # The chain starts one step late and skips term ceil(weight/hi).  Seeded
    # one step late instead, its row would start below weight 0 where
    # lo * ceil(weight/hi) > weight + 1, and raise.
    "box_sum seed": (PY, "range(seed + 1,", "range(seed + 2,", "box_sum(1, 2, 4)"),
    "set_exact_counts reach": (  # a weight that smax greatest parts fill counts 0
        PY, "c > smax * parts[-1]", "c >= smax * parts[-1]", "set_exact_counts((1, 2), 2, 4)"
    ),
    "set_any_count skips its least part": (
        PY, "for v in parts[:k]:", "for v in parts[1:k]:", "set_any_count((1, 2), 3)"
    ),
    "set_any_count reads the slot one weight down": (
        PY, "row >> weight * bits", "row >> (weight - 1) * bits", "set_any_count((1, 2), 3)"
    ),
    "partition_table": (  # the Durfee loop stops at s = 2
        PY, "range(isqrt(n), 0, -1)", "range(isqrt(n), 1, -1)", "partition_table(5)"
    ),
    "Durfee-square shift": (
        PY,
        "table[2 * s - 1 : 2 * s - 1 + len(body)] = body",
        "table[2 * s : 2 * s - 1 + len(body)] = body[:-1]",
        "partition_table(5)",
    ),
    "numerator skips its first factor": (
        PY, "range(b + 1, min(a + b,", "range(b + 2, min(a + b,", "box_table(3, 3)"
    ),
    "numerator skips its last factor": (PY, "width - 1) + 1):", "width - 1)):", "box_table(3, 3)"),
    "box division one doubling pass short": (  # each division holds only below about width / 2
        PY, "while v < width:", "while 2 * v < width:", "box_table(3, 3)"
    ),
    # The bound from partitions into at most k parts is exact for k <= 2,
    # where the other two are looser: a slot one bit narrower than it
    # cannot hold the largest count of such a box.
    "box slot one bit too narrow": (
        PY, "bits = _box_bits(a, b, c)", "bits = _box_bits(a, b, c) - 1", "box_count(2, 5, 4)"
    ),
    "Durfee double sum": (  # each square divides by 1 - q^s once, not twice
        PY, "accumulate(accumulate(body[r::s]))", "accumulate(body[r::s])", "partition_table(5)"
    ),
    "point query reads one weight down": (  # p(n - 1) for p(n) below the cut
        PY, "partition_table(n)[n]", "partition_table(n)[n - 1]", "partition_count(5)"
    ),
    "2-D shift": (  # part v shifts the row below one slot short
        PY, "shift = v * bits", "shift = (v - 1) * bits", "set_exact_counts((1, 2), 2, 4)"
    ),
    "2-D row below": (  # each row adds its own shifted self
        PY, "(below << shift)", "(table[p] << shift)", "set_exact_counts((1, 2), 2, 4)"
    ),
    # Halving the slot width is caught where the slots have one bit, one
    # part from up to two kinds; where they have more, the bounds are loose
    # enough that the sweeps' counts still fit in half of them.  Loosening
    # one of the three bounds survives, such as the Apostol bound without
    # its + 1 or the multisets bound with one kind fewer: neither is tight,
    # so the slots still hold every count.
    "2-D slot width": (
        PY,
        f"bits = 1 + min(\n        {SLOT_BOUNDS}\n    )",
        f"bits = (1 + min(\n        {SLOT_BOUNDS}\n    )) // 2",
        "set_exact_counts((1, 2), 1, 2)",
    ),
    "2-D last row": (  # each pass stops one row short
        PY, "min(rows,", "min(rows - 1,", "set_exact_counts((1, 2), 2, 4)"
    ),
    "Selberg sign": (  # (-1)^l flipped: every A_k(n), and so p(n), negated
        PY, "sm - cm if l & 1 else sm + cm", "sm + cm if l & 1 else sm - cm",
        "partition_number(200)",
    ),
    # Dropping the last term survives: the remainder bound is far above the
    # actual remainder, so the sum still certifies p(n).  The leading term
    # cannot be spared.
    "series drops its leading term": (
        PY, "range(done + 1, terms + 1)", "range(done + 2, terms + 1)", "partition_number(200)"
    ),
    "series prefactor": (  # 4 / (24n) instead of 4 / (24n - 1)
        PY, "(2 * tm // d,", "(2 * tm // (d + 1),", "partition_number(200)"
    ),
    "Selberg fold drops its doubling": (  # each odd k sums only l < k
        PY, "sm, sr = fold * sm, fold * sr", "sm, sr = sm, sr", "partition_number(200)"
    ),
    # Each ratio a_j / a_(j-1) of Chudnovsky's series takes 6j + 1 for
    # 6j - 1: pi moves by some 2**-47 of itself, and p(200) by 1.
    "Chudnovsky ratio": (PY, "(6 * j - 1)) //", "(6 * j + 1)) //", "partition_number(200)"),
    "chain skips a squaring": (  # each ball of an _exp chain is e^(x/2) for e^x
        PY, "for i in range(halvings, 0, -1):", "for i in range(halvings - 1, 0, -1):",
        "partition_number(200)",
    ),
    "compiled numerator skips its last factor": (
        C, "g <= to && g < width", "g < to && g < width", "box_table(3, 4)"
    ),
    "parts loop starts one weight late": (
        C, "long w = parts ? parts[i] : i + 1;", "long w = (parts ? parts[i] : i + 1) + 1;",
        "partition_table(5)",
    ),
    "2-D row window stops one short of p * v": (
        C, "long hi = p * v < width ? p * v : width - 1;",
        "long hi = p * v < width ? p * v - 1 : width - 1;", "set_exact_counts((1, 2), 2, 4)",
    ),
    "box zero shortcut takes the full box": (
        C, "if (c > a * b)", "if (c >= a * b)", "box_count(2, 2, 4)"
    ),
    "parts reader drops the top part": (
        C, "if (v > top)", "if (v >= top)", "set_any_count((1, 2), 2)"
    ),
    "box chain takes the next numerator factor": (
        C, "hi - lo + s, hi - lo + s, &s", "hi - lo + s + 1, hi - lo + s + 1, &s",
        "box_sum(1, 3, 6)",
    ),
    "box chain seed one step late": (
        C, "(w - 1) / hi : 0", "(w - 1) / hi + 1 : 0", "box_sum(1, 2, 4)"
    ),
    "point query drops the part n": (C, "NULL, n, 1);", "NULL, n - 1, 1);", "partition_count(5)"),
    # The route of ``count_set_at_most`` that sums the 2-D rows has an
    # equivalent mutant, which drops row 0: that row counts only at weight 0,
    # where the route never runs, as it needs max_parts < 0 // least.  So
    # does the split of its two routes taking ``>`` for ``>=``: at
    # max_parts == weight // least the bound cannot bind, and both routes
    # count the same.  Both are left out.
    "set-exact count with no usable part ignores num_parts": (
        "partitions.py", "int(num_parts == weight == 0)", "int(weight == 0)",
        "count_set_exact((), 2, 0)",
    ),
    "set-at-most count with no usable part counts 1": (
        "partitions.py", "return int(weight == 0)", "return 1", "count_set_at_most((3,), 1, 2)"
    ),
    "set-at-most count ignores the one usable part's divisibility": (
        "partitions.py", "int(weight % members[0] == 0 and", "int(True and",
        "count_set_at_most((3, 7), 5, 5)",
    ),
    "set-at-most count with one usable part ignores max_parts": (
        "partitions.py", " and weight // members[0] <= max_parts)", ")",
        "count_set_at_most((3,), 1, 6)",
    ),
    "betti box one part too large": (
        "grassmannian.py", "box_count(n - k, k,", "box_count(n - k + 1, k,", "betti(4, 2, 3)"
    ),
    "betti box one part too many": (
        "grassmannian.py", "box_count(n - k, k,", "box_count(n - k, k + 1,", "betti(4, 2, 3)"
    ),
    "betti one degree up": (
        "grassmannian.py", "box_count(n - k, k, degree)", "box_count(n - k, k, degree + 1)",
        "betti(4, 2, 2)",
    ),
    "poincare box one part too large": (
        "grassmannian.py", "box_table(n - k, k)", "box_table(n - k + 1, k)", "poincare(4, 2)"
    ),
    "monomial count one degree up": (
        "bounds.py", "count_set_any(parts, degree)", "count_set_any(parts, degree + 1)",
        "monomial_count((1, 2), 3)",
    ),
    "gapless bound counts 1 with no usable degree": (
        "bounds.py", "if not usable:\n        return 0", "if not usable:\n        return 1",
        "betti_upper_bound_gapless(BundleProfile(UNBOUNDED, (3,), UNBOUNDED), 2)",
    ),
}

# A mutant of validation alone, in the form of ``MUTANTS``: every sweep asks
# a bound only where t is UNBOUNDED, so ``verify all`` cannot see it.  Its
# witness must raise the typed error in the clean package, and must not in
# the mutant.
API_VALIDATION_MUTANTS = {
    "_check_degree admits t + 1": (
        "bounds.py", "if degree > profile.t:", "if degree > profile.t + 1:",
        "betti_upper_bound(BundleProfile(5, (1, 2), 3), 4)",
    ),
}

#: The child: prints the witness (its value, or the name of the package
#: error it raised), then exits with the code of ``verify all`` if asked.
_CHILD = """
import sys
from importlib import import_module
from charrank.cli import main
from charrank.errors import CharrankError

try:
    print(repr(eval(sys.argv[2], vars(import_module(sys.argv[1])))))
except CharrankError as exc:
    print(type(exc).__name__)
sys.exit(main(["verify", "all"]) if sys.argv[3:] else 0)
"""


def _module(file):
    """The module a mutant of ``file`` reads its witness in."""
    return "_dispatch" if file in (PY, C) else file.removesuffix(".py")


def _run_mutant(directory, file, original, replacement, witness, verify=True):
    """Run ``_CHILD`` on a copy of the package in ``directory``, without
    build products, with one edit of ``file``, the compiled source built in
    place: the witness line it printed, its exit code and its stderr."""
    package = directory / "charrank"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    path = package / file
    path.write_text(mutate(path.read_text(), original, replacement))
    if path.suffix == ".c":
        build(directory, path)
    # -S: the child needs the standard library and the copy alone, not site
    child = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, f"charrank.{_module(file)}", witness]
        + ["verify"] * verify,
        env={**os.environ, "PYTHONPATH": str(directory)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    return child.stdout.partition("\n")[0], child.returncode, child.stderr


def _witness(file, witness):
    return repr(eval(witness, vars(import_module(f"charrank.{_module(file)}"))))


@pytest.mark.parametrize("name", MUTANTS)
def test_criterion_9_mutant_makes_verify_all_exit_1(tmp_path, name):
    file, original, replacement, witness = MUTANTS[name]
    seen, code, err = _run_mutant(tmp_path, file, original, replacement, witness)
    clean = _witness(file, witness)
    _conclude(
        9,
        f"verify all exits {code} with {file} mutant {name!r}; {witness} = {seen}, clean {clean}",
        code == 1 and err == "" and seen != clean,
        err,
    )


@pytest.mark.parametrize("name", API_VALIDATION_MUTANTS)
def test_validation_mutant_passes_its_witness(tmp_path, name):
    file, original, replacement, witness = API_VALIDATION_MUTANTS[name]
    with pytest.raises(DegreeOutOfRange):
        _witness(file, witness)
    seen, code, _ = _run_mutant(tmp_path, file, original, replacement, witness, verify=False)
    assert code == 0 and seen != "DegreeOutOfRange"


def _rows(file):
    """The rows of ``MUTANTS`` that edit ``file``."""
    return [row for row in MUTANTS.values() if row[0] == file]


def _called(witness):
    """The name of the function ``witness`` calls."""
    return ast.parse(witness, mode="eval").body.func.id


def test_criterion_9_mutants_cover_every_kernel_and_branch():
    # a rename or rewrite that strands a mutant fails here, not silently
    text = PY_SOURCE.read_text()
    defs = {n.name: n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef)}
    series = {
        ast.unparse(n.iter): n for n in ast.walk(defs["partition_number"]) if isinstance(n, ast.For)
    }
    regions = {
        "_box_row": defs["_box_row"],
        "box_sum chain": next(n for n in ast.walk(defs["box_sum"]) if isinstance(n, ast.For)),
        "set-any divisions": next(
            n for n in ast.walk(defs["set_any_count"]) if isinstance(n, ast.For)
        ),
        "_part_rows": defs["_part_rows"],
        "Durfee loop": next(n for n in ast.walk(defs["partition_table"]) if isinstance(n, ast.For)),
        "series terms": series["chain"],
        "Selberg sum": series["ls"],
        "Chudnovsky sum": next(n for n in ast.walk(defs["_pi"]) if isinstance(n, ast.While)),
        "exp squarings": next(n for n in ast.walk(defs["_exp"]) if isinstance(n, ast.For)),
    }
    edited = {text.count("\n", 0, text.index(row[1])) + 1 for row in _rows(PY)}
    stranded = [
        name
        for name, node in regions.items()
        if not edited.intersection(range(node.lineno, node.end_lineno + 1))
    ]
    assert stranded == []
    # each pure entry point is called by a witness; the compiled ones are
    # test_kernels' test_compiled_mutants_cover_every_kernel
    assert {_called(row[3]) for row in _rows(PY)} == set(KERNELS)


#: The counting and bound functions of the public layer.
PUBLIC_COUNTS = {
    "partitions": (
        "count_box", "count_set_exact", "count_set_at_most", "count_set_any", "count_total"
    ),
    "bounds": ("betti_upper_bound", "betti_upper_bound_gapless", "monomial_count"),
    "grassmannian": ("betti", "poincare"),
}


def test_criterion_9_sweeps_call_every_public_count(monkeypatch):
    # a count or bound that no sweep calls is outside the mutation gate;
    # each is rebound wherever a module of the package binds it
    called = set()
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "charrank"]
    for owner, names in PUBLIC_COUNTS.items():
        for name in names:
            original = getattr(import_module(f"charrank.{owner}"), name)

            def spy(*args, _name=name, _original=original):
                called.add(_name)
                return _original(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, spy)
    run_all()
    everything = {name for names in PUBLIC_COUNTS.values() for name in names}
    assert sorted(everything - called) == []
    # every function those modules export, but the enumerators and the
    # q-binomial oracle, which are what counts are checked against
    exported = {
        name
        for owner in PUBLIC_COUNTS
        for name in charrank._EXPORTS[owner]
        if isinstance(getattr(import_module(f"charrank.{owner}"), name), types.FunctionType)
    }
    assert exported - {"enumerate_box", "enumerate_set_exact", "gaussian_binomial"} == everything
