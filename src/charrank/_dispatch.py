"""Backend selection for the counting kernels.

The compiled kernels (``_kernels_c``) serve when the extension was built;
otherwise the pure-Python twins in ``_kernels_py`` take over with identical
results.

The module-level names ``box_count``, ``box_table``, ``set_exact_counts``,
``set_any_table`` and ``partition_table`` are rebindable on purpose: the
verification tests swap in deliberately broken kernels to prove the checks
can fail.
"""

from charrank import _kernels_py

try:
    from charrank import _kernels_c as _backend
except ImportError:
    _backend = _kernels_py

box_count = _backend.box_count
box_table = _backend.box_table
set_exact_counts = _backend.set_exact_counts
set_any_table = _backend.set_any_table
partition_table = _backend.partition_table


def backend_name():
    """Either "c" or "python", whichever is serving the kernels."""
    return _backend.BACKEND
