"""Both kernel backends must be indistinguishable, entry by entry.

The compiled backend is built from ``src/charrank/_kernels_c.c`` into a
temporary directory with the interpreter's own toolchain, so these tests
exercise the current source whether or not the package was built, and
never leave a build product in the source tree.
"""

import importlib
import importlib.util
import shutil
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

import charrank
from charrank import _dispatch, _kernels_py
from charrank._kernels_py import SERIES_CUT
from charrank.cli import main as cli_main
from charrank.errors import TableTooLarge
from charrank.grassmannian import gaussian_binomial
from charrank.oracles import gaussian_triangle, pentagonal_partition_table
from charrank.partitions import count_set_at_most, count_total

from _backends import (
    COMPILED,
    KERNELS,
    PRICE,
    ROWS,
    SEAM,
    SEAM_CALLS,
    SERIES,
    SRC,
    WORD_BITS,
    forbid,
    mutate,
    serve,
)

SOURCE = SRC / "_kernels_c.c"
#: The weights that straddle the compiled seam: six at or below it, eight past it.
WINDOW = range(SEAM - 6, SEAM + 9)


def _build(directory, source=SOURCE):
    """Compile ``source`` into ``directory`` and load it as
    ``charrank._kernels_c``; skip when there is nothing to compile with.
    Warnings are errors, as in CI, except under MSVC, which spells them
    differently."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    header = Path(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which(compiler) is None or not header.is_file():
        pytest.skip(f"no C compiler ({compiler}) or no {header}")
    flags = [] if sys.platform == "win32" else ["-Wall", "-Werror"]
    extension = Extension("charrank._kernels_c", [str(source)], extra_compile_args=flags)
    dist = Distribution({"ext_modules": [extension]})
    command = build_ext(dist)
    command.build_lib = str(directory)
    command.build_temp = str(directory / "temp")
    command.ensure_finalized()
    command.run()
    path = command.get_ext_fullpath("charrank._kernels_c")
    spec = importlib.util.spec_from_file_location("charrank._kernels_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def kernels_c(tmp_path_factory):
    """The freshly built compiled backend, importable as
    ``charrank._kernels_c`` while this module's tests run."""
    module = _build(tmp_path_factory.mktemp("kernels_c"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "charrank._kernels_c", module)
        patch.delattr(charrank, "_kernels_c", raising=False)
        yield module


def test_backend_markers(kernels_c):
    assert _kernels_py.BACKEND == "python"
    assert kernels_c.BACKEND == "c"
    assert _dispatch.backend_name() in ("python", "c")


def test_seam_constants_state_the_proof(kernels_c):
    # SEAM is the largest n with p(n) < 2**WORD_BITS, derived in the tests
    assert kernels_c.WORD_BITS == WORD_BITS
    assert kernels_c.SAFE_WEIGHT == SEAM


@pytest.mark.parametrize("kernel", COMPILED)
def test_compiled_kernel_serves_the_seam_and_hands_on_past_it(kernels_c, monkeypatch, kernel):
    # the compiled kernels look their pure twin up by name when they hand a
    # call on, so a spy in its place sees exactly the calls they delegate
    twin, handed = getattr(_kernels_py, kernel), []

    def spy(*args):
        handed.append(args)
        return twin(*args)

    monkeypatch.setattr(_kernels_py, kernel, spy)
    compiled = getattr(kernels_c, kernel)
    at, past = SEAM_CALLS[kernel](SEAM), SEAM_CALLS[kernel](SEAM + 1)
    assert compiled(*at) == twin(*at)
    assert handed == []
    assert compiled(*past) == twin(*past)
    assert handed == [past]


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 80))
def test_box_count_agrees(kernels_c, a, b, c):
    assert kernels_c.box_count(a, b, c) == _kernels_py.box_count(a, b, c)


@given(st.integers(0, 12), st.integers(0, 12))
def test_box_table_agrees(kernels_c, a, b):
    assert kernels_c.box_table(a, b) == _kernels_py.box_table(a, b)


@given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 90))
def test_box_sum_agrees(kernels_c, lo, span, weight):
    assert kernels_c.box_sum(lo, lo + span, weight) == _kernels_py.box_sum(lo, lo + span, weight)


@given(
    st.sets(st.integers(1, 12), min_size=0, max_size=6),
    st.integers(0, 10),
    st.integers(0, 60),
)
def test_set_exact_counts_agree(kernels_c, members, b, c):
    parts = tuple(sorted(members))
    assert kernels_c.set_exact_counts(parts, b, c) == _kernels_py.set_exact_counts(
        parts, b, c
    )


@given(st.sets(st.integers(1, 90), min_size=0, max_size=6))
def test_set_any_count_agrees(kernels_c, members):
    # parts from 1 to 90 cover a least part above 1 and parts above the weight
    parts = tuple(sorted(members))
    for weight in range(81):
        expected = _kernels_py.set_any_count(parts, weight)
        assert kernels_c.set_any_count(parts, weight) == expected, weight


@given(st.integers(0, 120))
def test_partition_table_agrees(kernels_c, n):
    assert kernels_c.partition_table(n) == _kernels_py.partition_table(n)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(WINDOW))
def test_partition_table_agrees_across_word_size_boundary(kernels_c, n):
    # weights past SEAM leave the compiled word path for the shared
    # big-integer route; the seam must be invisible
    assert kernels_c.partition_table(n) == _kernels_py.partition_table(n)


def test_partition_count_is_the_pentagonal_table(kernels_c):
    # every weight to 600 or past SEAM crosses the pure cut and the seam
    expected = pentagonal_partition_table(max(600, SEAM + 1))
    assert [kernels_c.partition_count(n) for n in range(len(expected))] == expected
    for n in (SERIES_CUT - 1, SERIES_CUT, SERIES_CUT + 1, SEAM, SEAM + 1):
        assert kernels_c.partition_count(n) == _kernels_py.partition_count(n) == expected[n]


@pytest.mark.parametrize(
    "a, b",
    [(SEAM, SEAM), (5, 100), (100, 5), (20, 30), (300, 300), (205, 400), (SEAM + 8, 3)],
)
def test_box_count_agrees_across_word_size_boundary(kernels_c, a, b):
    # the compiled numerator entries wrap mod 2**WORD_BITS up to weight
    # SEAM, and past it the call goes to the big-integer route
    for c in WINDOW:
        assert kernels_c.box_count(a, b, c) == _kernels_py.box_count(a, b, c), c


@pytest.mark.parametrize("size", WINDOW)
def test_box_table_agrees_across_word_size_boundary(kernels_c, size):
    for a in range(1, size + 1):
        if size % a == 0:
            b = size // a
            expected = list(gaussian_binomial(a + b, min(a, b)))
            assert kernels_c.box_table(a, b) == _kernels_py.box_table(a, b) == expected


def test_box_table_is_the_q_pascal_triangle_to_80(kernels_c):
    # boxes of up to SEAM cells on the word path, the larger ones on the
    # pure kernel's packed rows, in slots past 64 bits from n = 68 on
    triangle = gaussian_triangle(80)
    for n, rows in enumerate(triangle):
        for k, row in enumerate(rows):
            assert kernels_c.box_table(n - k, k) == list(row), (n, k)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 1), (1, 8), (1, 30), (2, 5), (3, 20),
        (1, SEAM), (1, SEAM + 1), (7, SEAM + 8), (300, SEAM),
    ],
)
def test_box_sum_agrees_across_word_size_boundary(kernels_c, lo, hi):
    # every entry of the chained row and the sum count partitions of the
    # weight, so the compiled path stays exact up to SEAM; past it, and for
    # any hi past it, the call goes to the big-integer route
    for weight in WINDOW:
        assert kernels_c.box_sum(lo, hi, weight) == _kernels_py.box_sum(lo, hi, weight), weight


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lo", [1, 3])
def test_box_sum_agrees_from_each_seed_across_word_size_boundary(kernels_c, lo, seed):
    # hi is picked so the chain starts from the box row of step seed,
    # ceil(weight/hi) - 1; past weight SEAM, or with hi past it, the call
    # goes to the big-integer route
    for weight in WINDOW:
        hi = -(-weight // (seed + 1))
        assert -(-weight // hi) - 1 == seed
        assert kernels_c.box_sum(lo, hi, weight) == _kernels_py.box_sum(lo, hi, weight), weight


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.mark.parametrize("parts", [(1, 4, 9, 16), (3, 5, 8, 13, 21), PRIMES])
@pytest.mark.parametrize("b", [60, SEAM])
def test_set_exact_counts_agree_across_word_size_boundary(kernels_c, parts, b):
    # b = 60 is below every c // least here, so it caps the rows, yet 60
    # of the largest part outweigh c; b = SEAM, the largest the compiled
    # path takes, is at or above every c // least up to weight SEAM.  Past
    # that weight the compiled call goes to the big-integer route.
    for c in WINDOW:
        assert kernels_c.set_exact_counts(parts, b, c) == _kernels_py.set_exact_counts(
            parts, b, c
        ), c


@pytest.mark.parametrize(
    "parts",
    [(), (1,), (3, 5, 7), tuple(range(1, 9)), PRIMES, (2, SEAM - 16, SEAM, SEAM + 1, SEAM + 84)],
)
def test_set_any_count_agrees_across_word_size_boundary(kernels_c, parts):
    # every entry counts partitions of its weight, so the compiled path
    # stays exact up to weight SEAM and hands SEAM + 1 on to the
    # big-integer route
    for weight in WINDOW:
        expected = _kernels_py.set_any_count(parts, weight)
        assert kernels_c.set_any_count(parts, weight) == expected, weight


@pytest.mark.parametrize("weight", [0, SEAM, SEAM + 1, 3 * 10**7, 2**25 + 1])
def test_box_sum_with_no_part_within_the_weight_builds_no_row(kernels_c, monkeypatch, weight):
    # the compiled backend hands a lo past SEAM to the pure kernel, which
    # answers before it prices or builds a row
    forbid(monkeypatch, *ROWS, *PRICE)
    for backend in (kernels_c, _kernels_py):
        assert backend.box_sum(10**9, 10**9, weight) == int(weight == 0)


#: Counts that one part answers, far past the weights a row of the size
#: rule may hold: one 10**9 in 10**9, as any number of parts and as exactly
#: one part from {1, 10**9}, and ones in 10**8 by either route of the
#: bound.  Each is 1.
ONE_PART_COMMANDS = [
    "count set-any --parts 1000000000 1000000000",
    "bound --set 1 --dim inf --charrank inf --degree 100000000",
    "bound --set 1 --dim inf --charrank inf --degree 100000000 --gapless",
    "count set-exact --parts 1000000000 1 1000000000",
]


@pytest.mark.parametrize("command", ONE_PART_COMMANDS)
def test_one_part_counts_answer_at_once(kernels_c, monkeypatch, capsys, command):
    # the compiled backend hands each weight past SEAM to the pure kernel,
    # which answers before it prices or builds a row; count_set_exact
    # answers before it calls a kernel
    forbid(monkeypatch, *ROWS, *PRICE)
    for backend in (kernels_c, _kernels_py):
        with monkeypatch.context() as patch:
            serve(patch, backend)
            assert cli_main(command.split()) == 0
        assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("max_parts, expected", [(10**8 - 1, 0), (10**8, 1)])
def test_one_part_bound_answers_at_once(kernels_c, monkeypatch, max_parts, expected):
    # only 10**8 threes make up 3 * 10**8: a bound one short of them binds
    # and counts none, and neither route prices a row or the 2-D table
    forbid(monkeypatch, *ROWS, *PRICE)
    for backend in (kernels_c, _kernels_py):
        with monkeypatch.context() as patch:
            serve(patch, backend)
            assert count_set_at_most((3,), max_parts, 3 * 10**8) == expected


def test_series_is_priced_as_a_one_part_row(kernels_c, monkeypatch):
    # past SEAM count_total sums the pure series on both backends (the
    # compiled partition_count hands the weight to the pure one); its
    # n + 1 weights are priced before any term is summed
    expected = pentagonal_partition_table(999)[999]
    monkeypatch.setattr(_kernels_py, "MAX_TABLE_CELLS", 1000)
    for backend in (kernels_c, _kernels_py):
        with monkeypatch.context() as patch:
            serve(patch, backend)
            assert count_total(999) == expected
            forbid(patch, *ROWS, *SERIES)
            with pytest.raises(TableTooLarge, match="a row of 1001 weights times 1 parts"):
                count_total(1000)


def test_box_count_beyond_fast_path_is_exact(kernels_c):
    # a weight past SEAM forces the compiled backend to delegate; the
    # result is a big integer either way
    a, b, c = 30, 30, SEAM + 34
    assert kernels_c.box_count(a, b, c) == _kernels_py.box_count(a, b, c)


def test_huge_bounds_are_clamped_not_overflowed(kernels_c):
    # nominal bounds far beyond any C integer must not trip the compiled
    # backend; only the weight matters once bounds exceed it
    big = 10**30
    assert kernels_c.box_count(big, big, 40) == _kernels_py.box_count(40, 40, 40)


@pytest.mark.parametrize(
    "kernel, args",
    [
        ("box_count", (3, 4, -1)),
        ("box_count", (-1, 4, 3)),
        ("box_count", (3, -1, 3)),
        ("box_table", (-1, 3)),
        ("set_exact_counts", ((1, 2), -1, 3)),
        ("set_exact_counts", ((1, 2), 3, -1)),
        ("partition_table", (-1,)),
        ("set_any_count", ((1, 2), -1)),
        ("partition_count", (-1,)),
        ("box_count", (True, 4, 3)),
        ("box_count", (3, True, 3)),
        ("box_count", (3, 4, True)),
        ("box_table", (True, 3)),
        ("box_table", (3, True)),
        ("set_exact_counts", ((1, 2), True, 3)),
        ("set_exact_counts", ((1, 2), 3, True)),
        ("partition_table", (True,)),
        ("set_any_count", ((1, 2), True)),
        ("partition_count", (True,)),
    ],
)
def test_negative_argument_raises_the_same_error(kernels_c, kernel, args):
    # the compiled backend hands these to the pure one, so both raise alike
    errors = []
    for backend in (kernels_c, _kernels_py):
        with pytest.raises(
            ValueError,
            match=r"^(max_part|max_parts|each box side|num_parts|weight) must be an integer >= 0"
            r", got (-1|True)$",
        ) as caught:
            getattr(backend, kernel)(*args)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "args",
    [
        (1, 3, -1), (0, 3, 4), (-2, 3, 4), (4, 3, 5), (10**30 + 1, 10**30, 5), (SEAM + 2, SEAM + 1, 3),
        (True, 3, 4), (1, True, 4), (1, 3, True),
    ],
)
def test_bad_box_sum_argument_raises_the_same_error(kernels_c, args):
    # a negative weight, lo < 1 and hi < lo, also past what C can hold
    errors = []
    for backend in (kernels_c, _kernels_py):
        with pytest.raises(
            ValueError,
            match=r"^(lo must be an integer >= 1|hi must be an integer >= \d+|weight must be an integer >= 0)"
            r", got (-?\d+|True)$",
        ) as caught:
            backend.box_sum(*args)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_table_row_zero_weight(kernels_c):
    assert kernels_c.box_table(0, 7) == [1]
    assert kernels_c.box_table(7, 0) == [1]
    assert kernels_c.set_exact_counts((2, 3), 0, 0) == [1]


def test_concurrent_calls_are_consistent(kernels_c):
    expected = _kernels_py.box_count(10, 10, 50)

    def job(_):
        return kernels_c.box_count(10, 10, 50)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(64)))
    assert all(r == expected for r in results)


def test_dispatch_serves_compiled_when_it_imports(kernels_c, monkeypatch):
    # put back after the reloads below
    monkeypatch.setattr(_dispatch, "_backend", _dispatch._backend)
    serve(monkeypatch, _dispatch)
    importlib.reload(_dispatch)
    assert _dispatch.backend_name() == "c"
    assert all(getattr(_dispatch, k) is getattr(kernels_c, k) for k in COMPILED)
    assert _dispatch.partition_number is _kernels_py.partition_number
    monkeypatch.setitem(sys.modules, "charrank._kernels_c", None)  # import fails
    importlib.reload(_dispatch)
    assert _dispatch.backend_name() == "python"
    assert all(getattr(_dispatch, k) is getattr(_kernels_py, k) for k in KERNELS)


# Each compiled mutant: the text it replaces, the replacement, and a call on
# which it must disagree with the pure-Python kernels.
C_MUTANTS = {
    "numerator skips its last factor": (
        "g <= to && g < width",
        "g < to && g < width",
        ("box_table", (3, 4)),
    ),
    "parts loop starts one weight late": (
        "long w = parts ? parts[i] : i + 1;",
        "long w = (parts ? parts[i] : i + 1) + 1;",
        ("partition_table", (5,)),
    ),
    "2-D row window stops one short of p * v": (
        "long hi = p * v < width ? p * v : width - 1;",
        "long hi = p * v < width ? p * v - 1 : width - 1;",
        ("set_exact_counts", ((1, 2), 2, 4)),
    ),
    "box zero shortcut takes the full box": (
        "if (c > a * b)", "if (c >= a * b)", ("box_count", (2, 2, 4))
    ),
    "parts reader drops the top part": (
        "if (v > top)", "if (v >= top)", ("set_any_count", ((1, 2), 2))
    ),
    "box chain takes the next numerator factor": (
        "hi - lo + s, hi - lo + s, &s",
        "hi - lo + s + 1, hi - lo + s + 1, &s",
        ("box_sum", (1, 3, 6)),
    ),
    "box chain seed one step late": (
        "(w - 1) / hi : 0", "(w - 1) / hi + 1 : 0", ("box_sum", (1, 2, 4))
    ),
    "point query drops the part n": (
        "NULL, n, 1);", "NULL, n - 1, 1);", ("partition_count", (5,))
    ),
}


def test_compiled_mutants_cover_every_kernel():
    # a new compiled entry point needs a compiled mutant whose witness calls it
    assert {kernel for _, _, (kernel, _) in C_MUTANTS.values()} == set(COMPILED)


@pytest.mark.parametrize("name", C_MUTANTS)
def test_cross_backend_checks_catch_a_compiled_mutant(tmp_path, monkeypatch, name):
    # the compiled loops are corrupted in their source text, so this shows
    # that a defect in C, not only in Python, fails the checks
    original, mutated, (kernel, args) = C_MUTANTS[name]
    source = tmp_path / "_kernels_c.c"
    source.write_text(mutate(SOURCE.read_text(), original, mutated))
    mutant = _build(tmp_path, source)
    assert getattr(mutant, kernel)(*args) != getattr(_kernels_py, kernel)(*args)
    serve(monkeypatch, mutant)
    assert cli_main(["verify", "all"]) == 1


def _betti_topping_at(weight):
    """The command ``betti n k`` whose top degree k * (n - k) is
    ``weight``, with the largest k <= 4 that divides it."""
    k = max(k for k in (1, 2, 3, 4) if weight % k == 0)
    return f"betti {weight // k + k} {k}"


# Weight SEAM is the last the compiled word path takes, SEAM + 1 the first
# it hands to the big-integer route, and the two betti commands top out at
# them.  The gapless bound runs the box chain.  40 parts from {2..13}
# weigh 80..520, so set-exact 500 runs the table and set-exact 600 is an
# exact 0 with none.  count total is one point query: on pure the Durfee
# squares up to SERIES_CUT and the Rademacher series past it, compiled one
# row of machine words up to SEAM and the pure route past it.
SAME_OUTPUT = [
    "verify all --format json",
    _betti_topping_at(SEAM),
    _betti_topping_at(SEAM + 1),
    "count set-exact --parts 2,3,5,7,11,13 40 500",
    "count set-exact --parts 2,3,5,7,11,13 40 600",
] + [
    f"count total {weight}"
    for weight in (SERIES_CUT - 1, SERIES_CUT, SERIES_CUT + 1, SEAM, SEAM + 1, SEAM + 2, 3000)
] + [
    command.format(weight)
    for weight in (SEAM, SEAM + 1)
    for command in (
        "count box 30 30 {}",
        "count set-exact --parts 2,3,5,7,11,13 40 {}",
        "count set-any --parts 1,3,4,9 {}",
        "count set-any --parts 3,5,7 {}",
        "bound --set 1,2,3,4,5,6,7,8 --dim inf --charrank inf --degree {}",
        "bound --set 1,2,3,4,5,6,7,8 --dim inf --charrank inf --degree {} --gapless",
    )
]


@pytest.mark.parametrize("command", SAME_OUTPUT)
def test_cli_prints_the_same_bytes_on_both_backends(kernels_c, monkeypatch, capsysbinary, command):
    outputs = []
    for backend in (kernels_c, _kernels_py):
        with monkeypatch.context() as patch:
            serve(patch, backend)
            assert cli_main(command.split()) == 0
        outputs.append(capsysbinary.readouterr().out)
    assert outputs[0] == outputs[1] != b""
