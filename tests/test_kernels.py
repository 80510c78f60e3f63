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
from charrank.cli import main as cli_main
from charrank.grassmannian import gaussian_binomial

from _backends import KERNELS, SRC, mutate, serve

SOURCE = SRC / "_kernels_c.c"


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


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 80))
def test_box_count_agrees(kernels_c, a, b, c):
    assert kernels_c.box_count(a, b, c) == _kernels_py.box_count(a, b, c)


@given(st.integers(0, 12), st.integers(0, 12))
def test_box_table_agrees(kernels_c, a, b):
    assert kernels_c.box_table(a, b) == _kernels_py.box_table(a, b)


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


@given(st.sets(st.integers(1, 90), min_size=0, max_size=6), st.integers(0, 80))
def test_set_any_table_agrees(kernels_c, members, top):
    # parts from 1 to 90 cover a least part above 1 and parts above top
    parts = tuple(sorted(members))
    assert kernels_c.set_any_table(parts, top) == _kernels_py.set_any_table(parts, top)


@given(st.integers(0, 120))
def test_partition_table_agrees(kernels_c, n):
    assert kernels_c.partition_table(n) == _kernels_py.partition_table(n)


@settings(deadline=None, max_examples=10)
@given(st.integers(410, 424))
def test_partition_table_agrees_across_word_size_boundary(kernels_c, n):
    # weights 417+ leave the compiled uint64 fast path for the shared
    # big-integer route; the seam must be invisible
    assert kernels_c.partition_table(n) == _kernels_py.partition_table(n)


@pytest.mark.parametrize(
    "a, b", [(416, 416), (5, 100), (100, 5), (20, 30), (300, 300), (205, 400), (424, 3)]
)
def test_box_count_agrees_across_word_size_boundary(kernels_c, a, b):
    # the compiled numerator entries wrap mod 2**64 up to weight 416, and
    # from 417 on the call goes to the big-integer route
    for c in range(410, 425):
        assert kernels_c.box_count(a, b, c) == _kernels_py.box_count(a, b, c), c


@pytest.mark.parametrize("size", range(410, 425))
def test_box_table_agrees_across_word_size_boundary(kernels_c, size):
    for a in range(1, size + 1):
        if size % a == 0:
            b = size // a
            expected = list(gaussian_binomial(a + b, min(a, b)))
            assert kernels_c.box_table(a, b) == _kernels_py.box_table(a, b) == expected


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.mark.parametrize("parts", [(1, 4, 9, 16), (3, 5, 8, 13, 21), PRIMES])
@pytest.mark.parametrize("b", [60, 416])
def test_set_exact_counts_agree_across_word_size_boundary(kernels_c, parts, b):
    # b = 60 is below every c // least here, so it caps the rows, yet 60
    # of the largest part outweigh c; b = 416, the largest the compiled
    # path takes, is at or above every c // least up to weight 416.  From
    # weight 417 on the compiled call goes to the big-integer route.
    for c in range(410, 425):
        assert kernels_c.set_exact_counts(parts, b, c) == _kernels_py.set_exact_counts(
            parts, b, c
        ), c


@pytest.mark.parametrize(
    "parts", [(), (1,), (3, 5, 7), tuple(range(1, 9)), PRIMES, (2, 400, 416, 417, 500)]
)
def test_set_any_table_agrees_across_word_size_boundary(kernels_c, parts):
    # every entry counts partitions of its weight, so the compiled path
    # stays exact up to top 416 and hands 417 on to the big-integer route
    for top in range(410, 425):
        assert kernels_c.set_any_table(parts, top) == _kernels_py.set_any_table(
            parts, top
        ), top


def test_box_count_beyond_fast_path_is_exact(kernels_c):
    # weight above 416 forces the compiled backend to delegate; the result
    # is a big integer either way
    a, b, c = 30, 30, 450
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
        ("set_any_table", ((1, 2), -1)),
    ],
)
def test_negative_argument_raises_the_same_error(kernels_c, kernel, args):
    # the compiled backend hands these to the pure one, so both raise alike
    errors = []
    for backend in (kernels_c, _kernels_py):
        with pytest.raises(ValueError, match="must be nonnegative") as caught:
            getattr(backend, kernel)(*args)
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
    assert all(getattr(_dispatch, k) is getattr(kernels_c, k) for k in KERNELS)
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
        "if (v > top)", "if (v >= top)", ("set_any_table", ((1, 2), 2))
    ),
}


def test_compiled_mutants_cover_every_kernel():
    # a new entry point needs a compiled mutant whose witness calls it
    assert {kernel for _, _, (kernel, _) in C_MUTANTS.values()} == set(KERNELS)


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


# Weight 416 is the last the compiled uint64 path takes, 417 the first it
# hands to the big-integer route; betti 108 4 tops out at 4 * 104 = 416,
# betti 142 3 at 3 * 139 = 417.
SAME_OUTPUT = ["verify all --format json", "betti 108 4", "betti 142 3"] + [
    command.format(weight)
    for weight in (416, 417)
    for command in (
        "count box 30 30 {}",
        "count total {}",
        "count set-exact --parts 2,3,5,7,11,13 40 {}",
        "count set-any --parts 1,3,4,9 {}",
        "count set-any --parts 3,5,7 {}",
        "bound --set 1,2,3,4,5,6,7,8 --dim inf --charrank inf --degree {}",
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
