"""Swapping the kernels that ``_dispatch`` serves, and mutating their sources.

The mutation tests corrupt the real kernel source as text, one edit at a
time, so each mutant is today's kernel with exactly one transition broken.
"""

from pathlib import Path

from charrank import _dispatch, _kernels_py

SRC = Path(__file__).resolve().parents[1] / "src" / "charrank"
#: The entry points both backends have.
COMPILED = (
    "box_count",
    "box_table",
    "box_sum",
    "set_exact_counts",
    "set_any_count",
    "partition_table",
    "partition_count",
)
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
