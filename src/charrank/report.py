"""Structured results for the identity checks.

A VerificationReport records what grid was swept, how many instances were
checked, and every counterexample found.  ``checked`` counts grid
instances (one per parameter tuple), not individual comparisons — a single
instance may compare several quantities, and any mismatch is recorded as
one CheckFailure tagged with the comparison that broke.
"""

from enum import Enum

from charrank._record import Frozen, Record


class Identity(Enum):
    """The machine-checkable identities and invariants this package ships.

    EQ3 is the interval-transport identity (counting with parts from
    {nu..mu} against shifted counts in a box), EQ4 expresses p(j) through
    box counts, and EQ5 is the tail form of EQ3 for parts from {1..k} with
    j > k; the remaining members are cross-implementation consistency
    sweeps.
    """

    EQ3 = "eq3"
    EQ4 = "eq4"
    EQ5 = "eq5"
    BIJECTION_ROUND_TRIP = "bijection"
    ORACLE_EQUIVALENCE = "oracle"
    GRASSMANNIAN_TABLES = "grassmannian-tables"
    BOUND_SHARPNESS = "sharpness"
    PARTITION_FUNCTION_CROSSCHECK = "partition-function"


class CheckFailure(Frozen):
    """One counterexample: the parameters that produced it and the two
    values that should have agreed (rendered as strings for display)."""

    __match_args__ = ("params", "lhs", "rhs")

    def __init__(self, params, lhs, rhs):
        self._assign(params, lhs, rhs)


class VerificationReport(Record):
    """The result of one sweep, filled in as it runs, so unlike the other
    records it can be changed and has no hash.  ``failures`` starts as a
    new empty list unless one is given."""

    __match_args__ = ("identity_id", "swept_ranges", "checked", "failures")

    def __init__(self, identity_id, swept_ranges, checked=0, failures=None):
        self.identity_id = identity_id
        self.swept_ranges = swept_ranges
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self):
        return not self.failures

    @property
    def status(self):
        return "pass" if self.passed else "fail"

    def compare(self, params, lhs, rhs):
        """Record a comparison (without bumping ``checked``; callers count
        instances themselves)."""
        if lhs != rhs:
            self.failures.append(CheckFailure(tuple(params), lhs, rhs))

    def absorb(self, other):
        """Fold another report's tallies into this one."""
        self.checked += other.checked
        self.failures.extend(other.failures)
