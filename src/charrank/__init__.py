"""Exact combinatorics of restricted partitions, mod-2 Betti numbers of
real Grassmann manifolds, and characteristic-rank Betti-number bounds —
with built-in machine verification of the identities tying them together.

Counting kernels run as a C extension when it was built and fall back to
pure Python otherwise, with identical results; ``backend_name`` says which.
"""

from charrank._dispatch import backend_name
from charrank.bounds import (
    UNBOUNDED,
    BundleProfile,
    betti_upper_bound,
    betti_upper_bound_gapless,
    monomial_count,
)
from charrank.errors import (
    CapExceeded,
    CharrankError,
    DegreeOutOfRange,
    InvalidDimensions,
    NotGapless,
    PreconditionViolation,
    TableTooLarge,
)
from charrank.grassmannian import PoincareTable, betti, gaussian_binomial, poincare
from charrank.identities import (
    run_all,
    verify_eq3,
    verify_eq4,
    verify_eq5,
    verify_sweep,
)
from charrank.bijection import verify_bijection
from charrank.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    PartsSet,
    count_box,
    count_set_any,
    count_set_at_most,
    count_set_exact,
    count_total,
    enumerate_box,
    enumerate_set_exact,
)
from charrank.report import CheckFailure, Identity, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BundleProfile",
    "CapExceeded",
    "CharrankError",
    "CheckFailure",
    "DEFAULT_ENUMERATION_CAP",
    "DegreeOutOfRange",
    "Identity",
    "InvalidDimensions",
    "NotGapless",
    "Partition",
    "PartsSet",
    "PoincareTable",
    "PreconditionViolation",
    "TableTooLarge",
    "UNBOUNDED",
    "VerificationReport",
    "backend_name",
    "betti",
    "betti_upper_bound",
    "betti_upper_bound_gapless",
    "count_box",
    "count_set_any",
    "count_set_at_most",
    "count_set_exact",
    "count_total",
    "enumerate_box",
    "enumerate_set_exact",
    "gaussian_binomial",
    "monomial_count",
    "poincare",
    "run_all",
    "verify_bijection",
    "verify_eq3",
    "verify_eq4",
    "verify_eq5",
    "verify_sweep",
    "__version__",
]
