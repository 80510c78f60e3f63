"""The kernel section: the cases of ``benchmarks/bench_kernels.py``, run
directly on each kernel backend that imports.

When the compiled backend imports, both backends run every case and any
disagreement is a failed operation.  When it does not, the pure-Python
kernels are still timed and the result records the compiled backend as
absent.
"""

from time import perf_counter

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Sized to stay inside the compiled uint64 path (weight <= 416) except the
# last, which takes the big-integer route on both backends.
CASES = (
    ("box_count", (20, 20, 200)),
    ("box_count", (12, 12, 72)),
    ("box_table", (18, 18)),
    ("set_exact_counts", (PRIMES, 40, 400)),
    ("partition_table", (416,)),
    ("partition_table", (700,)),
)

REPEAT = 3


def _best_of(fn, args):
    best = float("inf")
    value = None
    for _ in range(REPEAT):
        start = perf_counter()
        value = fn(*args)
        best = min(best, perf_counter() - start)
    return best, value


def run():
    """Best-of-``REPEAT`` time of every case on each backend, summed per
    backend, and the number of cases on which the backends disagree."""
    from charrank import _kernels_py

    try:
        from charrank import _kernels_c
    except ImportError:
        _kernels_c = None

    python_s = compiled_s = 0.0
    disagreements = 0
    for name, args in CASES:
        seconds, value = _best_of(getattr(_kernels_py, name), args)
        python_s += seconds
        if _kernels_c is not None:
            seconds, other = _best_of(getattr(_kernels_c, name), args)
            compiled_s += seconds
            disagreements += value != other
    return {
        "compiled_present": _kernels_c is not None,
        "python_s": python_s,
        "compiled_s": compiled_s,
        "compared": len(CASES) if _kernels_c is not None else 0,
        "disagreements": disagreements,
    }
