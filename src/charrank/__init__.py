"""Exact combinatorics of restricted partitions, mod-2 Betti numbers of
real Grassmann manifolds, and characteristic-rank Betti-number bounds —
with built-in machine verification of the identities tying them together.

Counting kernels run as a C extension when it was built and fall back to
pure Python otherwise, with identical results; ``backend_name`` says which.

Each exported name, and each public submodule, loads its submodule on
first access, so ``import charrank`` alone loads no kernel.  A name's value
is then kept in this namespace, and later lookups are plain attribute reads.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the names it exports here.
_EXPORTS = {
    "_dispatch": ("backend_name",),
    "bijection": ("verify_bijection",),
    "bounds": (
        "UNBOUNDED",
        "BundleProfile",
        "betti_upper_bound",
        "betti_upper_bound_gapless",
        "monomial_count",
    ),
    "errors": (
        "CapExceeded",
        "CharrankError",
        "DegreeOutOfRange",
        "InvalidDimensions",
        "NotGapless",
        "PreconditionViolation",
        "TableTooLarge",
    ),
    "grassmannian": ("PoincareTable", "betti", "gaussian_binomial", "poincare"),
    "identities": ("run_all", "verify_eq3", "verify_eq4", "verify_eq5", "verify_sweep"),
    "partitions": (
        "DEFAULT_ENUMERATION_CAP",
        "Partition",
        "PartsSet",
        "count_box",
        "count_set_any",
        "count_set_at_most",
        "count_set_exact",
        "count_total",
        "enumerate_box",
        "enumerate_set_exact",
    ),
    "report": ("CheckFailure", "Identity", "VerificationReport"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

#: Submodules reachable as attributes, e.g. ``charrank.oracles``.
_SUBMODULES = {
    "bijection", "bounds", "cli", "errors", "grassmannian", "identities", "oracles", "partitions",
    "report",
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
