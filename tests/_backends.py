"""Swapping the kernels that ``_dispatch`` serves, and mutating their sources.

The mutation tests corrupt the real kernel source as text, one edit at a
time, so each mutant is today's kernel with exactly one transition broken.
"""

from pathlib import Path

import pytest

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
