"""Swapping the kernels that ``_dispatch`` serves, building the compiled
one, and the calls every backend must refuse.

``serve`` binds one backend's kernels in ``_dispatch`` and ``build``
compiles ``_kernels_c.c`` with the interpreter's own toolchain.  Criterion
9 of ``test_acceptance`` has one table of mutants, ``MUTANTS``, and one
runner: it copies the package, makes a row's one text edit with
``mutate``, builds the copy in place with ``build`` when the edit is of
``_kernels_c.c``, and runs ``verify all`` in a child process.  ``forbid``
and its groups guard calls that must be answered before any table work.
"""

import shutil
import sys
import sysconfig
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

from charrank import _dispatch, _kernels_py
from charrank.oracles import pentagonal_partition_table

SRC = Path(__file__).resolve().parents[1] / "src" / "charrank"
#: The width of the compiled kernels' word, ``_kernels_c.WORD_BITS``.
WORD_BITS = 64


def _seam(bits):
    """The largest n with p(n) < 2**bits.  Every count at weight n is at
    most p(n), so this is the largest weight whose counts all fit in a word
    of ``bits`` bits; p grows, so a longer table only appends larger p."""
    limit = 64
    while (table := pentagonal_partition_table(limit))[-1] < 2**bits:
        limit *= 2
    return sum(p < 2**bits for p in table) - 1


#: The compiled seam, derived from the proof rather than read from the
#: module: the compiled kernels serve weights up to SEAM natively and hand
#: SEAM + 1 on to ``_kernels_py``.  Tests that straddle it name it.
SEAM = _seam(WORD_BITS)
#: One call of each compiled entry point at a weight w on the seam's scale.
SEAM_CALLS = {
    "box_count": lambda w: (2, w, w),
    "box_table": lambda w: (1, w),
    "box_sum": lambda w: (1, 2, w),
    "set_exact_counts": lambda w: ((1,), 1, w),
    "set_any_count": lambda w: ((1,), w),
    "partition_table": lambda w: (w,),
    "partition_count": lambda w: (w,),
}
#: The entry points both backends have.
COMPILED = tuple(SEAM_CALLS)
#: Every ``_dispatch`` entry point: the Rademacher series is pure Python
#: on both backends.
KERNELS = COMPILED + ("partition_number",)


def serve(monkeypatch, backend):
    """Bind every ``_dispatch`` entry point to ``backend``'s, until
    ``monkeypatch`` undoes it.  A backend without ``partition_number``,
    the compiled one, leaves it to the pure module, as ``_dispatch`` does."""
    for name in KERNELS:
        monkeypatch.setattr(_dispatch, name, getattr(backend, name, getattr(_kernels_py, name)))


def mutate(text, original, replacement):
    """``text`` with ``original``, which must occur exactly once, replaced."""
    assert text.count(original) == 1, f"{original!r} must occur exactly once"
    return text.replace(original, replacement)


def build(directory, source):
    """Compile ``source`` as ``charrank._kernels_c`` into the package
    ``directory / "charrank"`` and return the built file's path; skip when
    there is nothing to compile with.  Warnings are errors, as in CI,
    except under MSVC, which spells them differently."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    header = Path(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which(compiler) is None or not header.is_file():
        pytest.skip(f"no C compiler ({compiler}) or no {header}")
    flags = [] if sys.platform == "win32" else ["-Wall", "-Werror"]
    extension = Extension("charrank._kernels_c", [str(source)], extra_compile_args=flags)
    command = build_ext(Distribution({"ext_modules": [extension]}))
    command.build_lib = str(directory)
    command.build_temp = str(directory / "temp")
    command.ensure_finalized()
    command.run()
    return command.get_ext_fullpath("charrank._kernels_c")


#: Calls every backend that has the kernel refuses, each with its
#: ``ValueError`` message: a negative or bool count argument, and a
#: ``box_sum`` with lo < 1 or hi < lo, also past what C can hold.
BAD_CALLS = {
    "box_count(3, 4, -1)": "weight must be an integer >= 0, got -1",
    "box_count(-1, 4, 3)": "max_part must be an integer >= 0, got -1",
    "box_count(3, -1, 3)": "max_parts must be an integer >= 0, got -1",
    "box_count(True, 4, 3)": "max_part must be an integer >= 0, got True",
    "box_count(3, True, 3)": "max_parts must be an integer >= 0, got True",
    "box_count(3, 4, True)": "weight must be an integer >= 0, got True",
    "box_table(-1, 3)": "each box side must be an integer >= 0, got -1",
    "box_table(True, 3)": "each box side must be an integer >= 0, got True",
    "box_table(3, True)": "each box side must be an integer >= 0, got True",
    "box_sum(1, 3, -1)": "weight must be an integer >= 0, got -1",
    "box_sum(0, 3, 4)": "lo must be an integer >= 1, got 0",
    "box_sum(-2, 3, 4)": "lo must be an integer >= 1, got -2",
    "box_sum(4, 3, 5)": "hi must be an integer >= 4, got 3",
    "box_sum(10**30 + 1, 10**30, 5)": f"hi must be an integer >= {10**30 + 1}, got {10**30}",
    f"box_sum({SEAM + 2}, {SEAM + 1}, 3)": f"hi must be an integer >= {SEAM + 2}, got {SEAM + 1}",
    "box_sum(True, 3, 4)": "lo must be an integer >= 1, got True",
    "box_sum(1, True, 4)": "hi must be an integer >= 1, got True",
    "box_sum(1, 3, True)": "weight must be an integer >= 0, got True",
    "set_exact_counts((1, 2), -1, 3)": "num_parts must be an integer >= 0, got -1",
    "set_exact_counts((1, 2), 3, -1)": "weight must be an integer >= 0, got -1",
    "set_exact_counts((1, 2), True, 3)": "num_parts must be an integer >= 0, got True",
    "set_exact_counts((1, 2), 3, True)": "weight must be an integer >= 0, got True",
    "set_any_count((1, 2), -1)": "weight must be an integer >= 0, got -1",
    "set_any_count((1, 2), True)": "weight must be an integer >= 0, got True",
    "partition_table(-1)": "weight must be an integer >= 0, got -1",
    "partition_table(True)": "weight must be an integer >= 0, got True",
    "partition_count(-1)": "weight must be an integer >= 0, got -1",
    "partition_count(True)": "weight must be an integer >= 0, got True",
    "partition_number(-1)": "weight must be an integer >= 0, got -1",
    "partition_number(True)": "weight must be an integer >= 0, got True",
}


def call(backend, text):
    """The call ``text`` evaluated on ``backend``'s functions."""
    return eval(text, dict(vars(backend)))


#: What builds a row in ``_kernels_py``: the packed box and set-any rows,
#: their division, the 2-D set-exact table, and the Durfee squares of
#: ``partition_table``, which sum on ``accumulate``.
ROWS = ("_box_row", "_divide", "_part_rows", "accumulate")
#: The one size rule every entry point prices its call by.
PRICE = ("_check_row",)
#: The proved slot widths of the packed rows.
SLOT_BITS = ("_apostol_bits", "_box_bits")
#: The ball arithmetic and the remainder bound of the Rademacher series.
SERIES = ("_mul", "_div", "_coarser", "_sqrt", "_pi", "_exp", "_cos", "_tail", "_terms_for")


def forbid(monkeypatch, *names, module=_kernels_py):
    """Make each of ``names`` in ``module`` fail the test if it is called,
    until ``monkeypatch`` undoes it: a call answered or refused before that
    work then passes only if none of it ran."""
    for name in names:

        def forbidden(*args, name=name):
            pytest.fail(f"{module.__name__}.{name} was called")

        monkeypatch.setattr(module, name, forbidden)
