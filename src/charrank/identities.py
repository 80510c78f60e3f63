"""Machine checks for the partition identities this package rests on.

This module is the one place that knows which identities exist, which
grid each sweeps and how one instance of each is checked.  Each
``verify_*`` function checks one parameter tuple and returns a
VerificationReport; a sweep loops over its grid and absorbs those reports.
The bijection and oracle sweeps check a whole grid cell, every weight of
it, at once instead, and count each weight as one instance.  Only the
bijection sweep runs the window enumerators of ``partitions``; the oracle
sweep counts a cell's multisets by brute force
(``oracles.multiset_weights``) and compares that row with the public
counts in one list comparison, weight by weight only when they differ.
``verify_sweep`` runs one identity's sweep, and ``run_all`` runs every
sweep at its default ranges (what the CLI's ``verify all`` does).
``SWEEP_ORDER`` and ``RANGE_KEYS`` name the identities and the range
parameters, and ``default_grid`` gives one identity's default ranges; the
CLI builds its ``verify`` choices, flags and flag help from them.
Checks go through the public counting API, so a defect in either
kernel backend surfaces as a failed report rather than a wrong answer
quietly propagating.  Two kinds of call read a ``_dispatch`` kernel
directly.  ``verify_eq3``, ``verify_eq4`` and ``verify_eq5`` read the
paper's sum of box counts from ``_dispatch.box_sum``, which has no
public count of its own (``betti_upper_bound_gapless`` serves it).  The
partition-function sweep calls the Rademacher series at its top weight:
``count_total`` takes that route only past ``_kernels_py.SERIES_CUT``
(on the compiled backend past ``_kernels_c.SAFE_WEIGHT``), above the
default grid.
"""

from itertools import combinations, islice
from math import comb

from charrank import _dispatch
from charrank.bounds import (
    UNBOUNDED,
    BundleProfile,
    betti_upper_bound,
    betti_upper_bound_gapless,
)
from charrank.bijection import _verify_weights
from charrank.errors import PreconditionViolation, check_int
from charrank.grassmannian import poincare
from charrank.oracles import gaussian_triangle, multiset_weights, pentagonal_partition_table
from charrank.partitions import (
    DEFAULT_ENUMERATION_CAP,
    PartsSet,
    _check_cap,
    count_box,
    count_set_any,
    count_set_at_most,
    count_set_exact,
    count_total,
)
from charrank.report import Identity, VerificationReport


def _single_report(identity, params):
    return VerificationReport(
        identity_id=identity,
        swept_ranges={k: str(v) for k, v in params},
        checked=1,
    )


def verify_eq3(min_part, max_part, weight):
    """Check, for one (min_part, max_part, weight), that partitions of
    ``weight`` with parts in {min_part..max_part} (any number of parts)
    match the box counts of the reduced weights, summed by the
    ``box_sum`` kernel."""
    check_int(ValueError, 1, "min_part", min_part)
    check_int(ValueError, min_part, "max_part", max_part)
    check_int(ValueError, 1, "weight", weight)
    params = (("min_part", min_part), ("max_part", max_part), ("weight", weight))
    report = _single_report(Identity.EQ3, params)
    lhs = count_set_any(range(min_part, max_part + 1), weight)
    report.compare(params, lhs, _dispatch.box_sum(min_part, max_part, weight))
    return report


def verify_eq4(weight):
    """Check that p(weight) equals the sum over s of partitions of
    weight - s in an (weight-1) x s box."""
    check_int(ValueError, 1, "weight", weight)
    params = (("weight", weight),)
    report = _single_report(Identity.EQ4, params)
    report.compare(params, count_total(weight), _dispatch.box_sum(1, weight, weight))
    return report


def verify_eq5(num_degrees, weight):
    """Check the tail form: for weight > num_degrees, partitions of
    ``weight`` with parts at most ``num_degrees`` match the box counts
    summed from s = ceil(weight/num_degrees) by the ``box_sum`` kernel.

    The any-parts form checks the left side, which counts on the 1-D
    set-any table, and ``count_box(num_degrees, weight, weight)`` against
    the 2-D set-exact table: at most weight - 1 parts bind the bound, and
    the one partition into exactly ``weight`` parts is all ones."""
    check_int(ValueError, 1, "num_degrees", num_degrees)
    check_int(PreconditionViolation, num_degrees + 1, "weight", weight)
    params = (("num_degrees", num_degrees), ("weight", weight))
    report = _single_report(Identity.EQ5, params)
    degrees = range(1, num_degrees + 1)
    lhs = count_set_any(degrees, weight)
    tail = _dispatch.box_sum(1, num_degrees, weight)
    report.compare(params + (("check", "tail form"),), lhs, tail)
    table = count_set_at_most(degrees, weight - 1, weight) + 1
    any_parts = params + (("check", "any-parts form"),)
    report.compare(any_parts, lhs, table)
    report.compare(any_parts, count_box(num_degrees, weight, weight), table)
    return report


def _sweep_eq3(report, max_mu, max_j):
    for mu in range(1, max_mu + 1):
        for nu in range(1, mu + 1):
            for j in range(nu, max_j + 1):
                report.absorb(verify_eq3(nu, mu, j))


def _sweep_eq4(report, max_j):
    for j in range(1, max_j + 1):
        report.absorb(verify_eq4(j))


def _sweep_eq5(report, max_k, max_j):
    for num_degrees in range(1, max_k + 1):
        for j in range(num_degrees + 1, max_j + 1):
            report.absorb(verify_eq5(num_degrees, j))


def _sweep_bijection(report, max_mu, max_x, max_j):
    for mu in range(1, max_mu + 1):
        for nu in range(1, mu + 1):
            for x in range(1, max_x + 1):
                _verify_weights(report, nu, mu, x, 0, max_j)


def _sweep_oracle(report, max_part, max_parts, max_weight):
    weights = range(max_weight + 1)

    def check(params, counts, found):
        # one list comparison per cell; a cell that differs is compared
        # weight by weight, so its failures are recorded one per weight
        report.checked += len(counts)
        if counts != found:
            for c in weights:
                report.compare(params + (("weight", c),), counts[c], found[c])

    # each cell is refused where the window enumerators would refuse it
    for a in range(max_part + 1):
        for b in range(max_parts + 1):
            _check_cap(a, b, weights, DEFAULT_ENUMERATION_CAP)
            check(
                (("subject", "box"), ("max_part", a), ("max_parts", b)),
                [count_box(a, b, c) for c in weights],
                multiset_weights(range(a + 1), b, max_weight),
            )
    values = range(1, max_part + 1)
    for size in range(1, max_part + 1):
        for members in combinations(values, size):
            label = ",".join(map(str, members))
            parts = PartsSet(members)  # validated once, not on every count
            for b in range(max_parts + 1):
                _check_cap(members[-1], b, range(b, max_weight + 1), DEFAULT_ENUMERATION_CAP)
                check(
                    (("subject", "set-exact"), ("parts", label), ("num_parts", b)),
                    [count_set_exact(parts, b, c) for c in weights],
                    multiset_weights(members, b, max_weight),
                )


def _sweep_grassmannian(report, max_n):
    # one row of the triangle at a time, from n = 1: row 0 has no Grassmannian
    rows = islice(gaussian_triangle(max_n), 1, None)
    for n, expected in enumerate(rows, 1):
        for k in range(n + 1):
            report.checked += 1
            params = (("n", n), ("k", k))
            table = poincare(n, k).betti
            report.compare(
                params + (("check", "generating polynomial"),),
                list(table),
                list(expected[k]),
            )
            report.compare(
                params + (("check", "palindrome"),), list(table), list(table[::-1])
            )
            report.compare(
                params + (("check", "total rank"),), sum(table), comb(n, k)
            )


def _sweep_sharpness(report, max_k, max_j):
    for k in range(1, max_k + 1):
        profile = BundleProfile(UNBOUNDED, PartsSet(range(1, k + 1)), UNBOUNDED)
        for j in range(1, max_j + 1):
            report.checked += 1
            params = (("num_degrees", k), ("degree", j))
            bound = betti_upper_bound(profile, j)
            if j <= k:
                report.compare(
                    params + (("check", "all partitions reachable"),),
                    bound,
                    count_total(j),
                )
            # the gapless form is compared at every j; for j > k this repeats
            # eq5's tail form, here through the public bound API
            report.compare(
                params + (("check", "gapless form"),),
                bound,
                betti_upper_bound_gapless(profile, j),
            )


def _sweep_partition_crosscheck(report, max_weight):
    expected = pentagonal_partition_table(max_weight)
    for w in range(max_weight + 1):
        report.checked += 1
        report.compare((("weight", w),), count_total(w), expected[w])
    # The top weight once more through count_box, a route that shares no
    # step with partition_table's Durfee squares: _box_row divides by
    # 1 - q^i for i = 1..max_weight on _divide (no numerator factor of this
    # box falls at or below max_weight).
    report.compare(
        (("weight", max_weight), ("check", "box")),
        count_box(max_weight, max_weight, max_weight),
        expected[max_weight],
    )
    # And once through the Rademacher series, which count_total takes only
    # past _kernels_py.SERIES_CUT.  A sum it cannot certify is a failed check.
    try:
        series = _dispatch.partition_number(max_weight)
    except ArithmeticError as exc:
        series = str(exc)
    report.compare((("weight", max_weight), ("check", "series")), series, expected[max_weight])


#: Every identity with its sweep and default grid, in the order ``run_all``
#: (and the CLI's ``verify all``) runs them.  Every grid key is a
#: nonnegative bound.
_SWEEPS = {
    Identity.EQ3: (_sweep_eq3, {"max_mu": 10, "max_j": 30}),
    Identity.EQ4: (_sweep_eq4, {"max_j": 30}),
    Identity.EQ5: (_sweep_eq5, {"max_k": 8, "max_j": 30}),
    Identity.BIJECTION_ROUND_TRIP: (_sweep_bijection, {"max_mu": 8, "max_x": 8, "max_j": 32}),
    Identity.ORACLE_EQUIVALENCE: (_sweep_oracle, {"max_part": 6, "max_parts": 6, "max_weight": 36}),
    Identity.GRASSMANNIAN_TABLES: (_sweep_grassmannian, {"max_n": 24}),
    Identity.BOUND_SHARPNESS: (_sweep_sharpness, {"max_k": 8, "max_j": 30}),
    Identity.PARTITION_FUNCTION_CROSSCHECK: (_sweep_partition_crosscheck, {"max_weight": 200}),
}

SWEEP_ORDER = tuple(_SWEEPS)

#: Every range parameter some sweep accepts, in order of first appearance.
RANGE_KEYS = tuple(dict.fromkeys(key for _, grid in _SWEEPS.values() for key in grid))


def default_grid(identity_id):
    """The default range parameters of one identity's sweep, as a new dict."""
    return dict(_SWEEPS[Identity(identity_id)][1])


def verify_sweep(identity_id, ranges=None):
    """Sweep one identity over a parameter grid and report.

    ``identity_id`` is an Identity or its string value; ``ranges`` may
    override any of that identity's default range parameters, each with a
    nonnegative int (unknown keys are rejected).  A grid with no instances
    raises ValueError.
    """
    identity = Identity(identity_id)
    sweep, grid = _SWEEPS[identity]
    merged = dict(grid)
    if ranges:
        unknown = sorted(set(ranges) - set(merged))
        if unknown:
            raise ValueError(
                f"unknown range parameter(s) for {identity.value}: {', '.join(unknown)}"
            )
        for key, value in ranges.items():
            check_int(ValueError, 0, key, value)
        merged.update(ranges)
    report = VerificationReport(
        identity_id=identity,
        swept_ranges={k: str(v) for k, v in sorted(merged.items())},
    )
    sweep(report, **merged)
    if report.checked == 0:
        raise ValueError(f"empty parameter grid for {identity.value}: {merged}")
    return report


def run_all():
    """Run every sweep at its default ranges and return the reports in
    SWEEP_ORDER."""
    return [verify_sweep(identity) for identity in SWEEP_ORDER]
