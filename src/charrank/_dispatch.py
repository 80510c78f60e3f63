"""Backend selection for the counting kernels.

The compiled kernels (``_kernels_c``) serve when the extension was built;
otherwise the pure-Python twins in ``_kernels_py`` take over with identical
results.

Eight module-level names are rebindable on purpose: the verification
tests swap in deliberately broken kernels to prove the checks can fail.
Seven of them, ``box_count``, ``box_table``, ``box_sum``,
``set_exact_counts``, ``set_any_count``, ``partition_table`` and the
point query ``partition_count``, come from the serving backend; each
backend's ``partition_count`` picks its own route to p(n).  The eighth,
``partition_number`` (the Rademacher series for p(n)), is pure Python on
both backends: it works on big integers from its first term, so the
compiled module has no twin of it.
"""

from charrank import _kernels_py

try:
    from charrank import _kernels_c as _backend
except ImportError:
    _backend = _kernels_py

box_count = _backend.box_count
box_table = _backend.box_table
box_sum = _backend.box_sum
set_exact_counts = _backend.set_exact_counts
set_any_count = _backend.set_any_count
partition_table = _backend.partition_table
partition_count = _backend.partition_count
partition_number = _kernels_py.partition_number


def backend_name():
    """Either "c" or "python", whichever is serving the kernels."""
    return _backend.BACKEND
