"""The weight-transport bijection behind the interval-restricted counts.

Subtracting the least allowed value from every part of a partition (and
discarding the zeros that appear) is a bijection

    partitions of w into exactly x parts, each in {lo, .., hi}
      <-->
    partitions of w - lo*x into at most x parts, each at most hi - lo,

with inverse "add lo to every part, then pad with parts equal to lo".
The reduced side is the (hi - lo) x x box.  ``_verify_weights`` checks the
round trips and the cardinality transfer for one (lo, hi, x) cell over a
window of weights: it enumerates each side once, by one descent over the
whole window, and compares part tuples.  Both sides list each weight in
lexicographically decreasing order, which both maps keep, so it compares
whole buckets: each side mapped in order must equal the other.  Only a
bucket that differs is checked element by element, which records its
failures and builds ``Partition``s only for them.  The window enumerators
of ``partitions`` own the enumeration cap: each refuses its first weight
past it.  ``verify_bijection`` is that check at a single weight.
"""

from charrank.errors import PreconditionViolation, check_int
from charrank.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    _box_parts,
    _set_exact_parts,
)
from charrank.report import Identity, VerificationReport


def _check_interval(min_part, max_part):
    check_int(PreconditionViolation, 1, "least part", min_part)
    check_int(PreconditionViolation, min_part, "greatest part", max_part)


def _parts(p):
    """The part tuple of ``p``, a Partition or any iterable of parts."""
    return (p if isinstance(p, Partition) else Partition(p)).parts


def reduce(p, num_parts, min_part, max_part):
    """Subtract ``min_part`` from every part of ``p`` and drop the zeros.

    ``p`` must consist of exactly ``num_parts`` parts, every one of them in
    [min_part, max_part]; anything else raises PreconditionViolation.
    """
    _check_interval(min_part, max_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    return Partition._canonical(_reduce(_parts(p), num_parts, min_part, max_part))


def _reduce(parts, num_parts, min_part, max_part):
    """``reduce`` on a tuple of parts in non-increasing order, for integer
    arguments already checked; returns the reduced part tuple."""
    if len(parts) != num_parts:
        raise PreconditionViolation(f"expected exactly {num_parts} parts, got {len(parts)}")
    # every part lies between the last and the first
    if not (min_part <= parts[-1] and parts[0] <= max_part):
        v = next(v for v in parts if not min_part <= v <= max_part)
        raise PreconditionViolation(f"part {v} falls outside [{min_part}, {max_part}]")
    return tuple([v - min_part for v in parts if v > min_part])


def expand(q, num_parts, min_part):
    """Add ``min_part`` to every part of ``q``, then pad with parts equal
    to ``min_part`` until there are exactly ``num_parts`` parts.

    ``q`` may have at most ``num_parts`` parts.
    """
    check_int(PreconditionViolation, 1, "least part", min_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    return Partition._canonical(_expand(_parts(q), num_parts, min_part))


def _expand(parts, num_parts, min_part):
    """``expand`` on a tuple of parts in non-increasing order, for integer
    arguments already checked; returns the expanded part tuple."""
    if len(parts) > num_parts:
        raise PreconditionViolation(
            f"expected at most {num_parts} parts, got {len(parts)}"
        )
    return tuple([v + min_part for v in parts]) + (min_part,) * (num_parts - len(parts))


def _verify_weights(report, min_part, max_part, num_parts, lo, hi, cap=DEFAULT_ENUMERATION_CAP):
    """Check the transport bijection for one (min_part, max_part,
    num_parts) cell at every weight lo..hi, into ``report``: one more
    ``checked`` per weight, and the failures in weight order.

    Each side is enumerated once for the whole window, bucketed by weight,
    by a window enumerator that applies ``cap``; the reduced side is the
    (max_part - min_part) x num_parts box.  A weight whose buckets the two
    maps carry onto each other in order passes; any other is checked
    element by element.  An enumerated partition that ``reduce`` or
    ``expand`` refuses (wrong number of parts, or a part outside the
    interval) is recorded as a failure, not raised.
    """
    shift = min_part * num_parts
    domains = _set_exact_parts(tuple(range(min_part, max_part + 1)), num_parts, lo, hi, cap)
    low = max(lo - shift, 0)  # the least residual weight of the window
    codomains = []
    if hi >= shift:
        codomains = _box_parts(max_part - min_part, num_parts, low, hi - shift, cap)

    def fail(weight, check, lhs, rhs, key=None, parts=None):
        # Part tuples are recorded as Partitions, objects rather than
        # reprs: a rendered failure shows their str, which is their repr.
        tag = (
            ("min_part", min_part),
            ("max_part", max_part),
            ("weight", weight),
            ("num_parts", num_parts),
            ("check", check),
        )
        if key is not None:
            tag += ((key, Partition._canonical(parts)),)
        shown = [Partition._canonical(v) if isinstance(v, tuple) else v for v in (lhs, rhs)]
        report.compare(tag, *shown)

    for weight, domain in enumerate(domains, lo):
        report.checked += 1
        residual = weight - shift
        codomain = codomains[residual - low] if residual >= 0 else []
        # Both buckets are lexicographically decreasing, and both maps keep
        # that order.  So a correct bucket maps onto the other side in
        # order, both ways; that implies every check below (the reduced
        # side's buckets are built by weight), which then runs only on a
        # bucket that differs, to record its failures.
        try:
            if [_reduce(p, num_parts, min_part, max_part) for p in domain] == codomain and [
                _expand(q, num_parts, min_part) for q in codomain
            ] == domain:
                continue
        except PreconditionViolation:
            pass
        if len(domain) != len(codomain):
            fail(weight, "cardinality", len(domain), len(codomain))

        codomain_set = set(codomain)
        for p in domain:
            try:
                q = _reduce(p, num_parts, min_part, max_part)
            except PreconditionViolation as exc:
                fail(weight, "precondition", str(exc), "satisfied", "p", p)
                continue
            if q not in codomain_set:
                fail(weight, "image membership", q, "reduced side")
                continue
            if sum(q) != residual:
                fail(weight, "shifted weight", sum(q), residual, "p", p)
            back = _expand(q, num_parts, min_part)
            if back != p:
                fail(weight, "round trip", back, p, "p", p)

        domain_set = set(domain)
        for q in codomain:
            try:
                p = _expand(q, num_parts, min_part)
                if p not in domain_set:
                    fail(weight, "preimage membership", p, "original side", "q", q)
                    continue
                back = _reduce(p, num_parts, min_part, max_part)
            except PreconditionViolation as exc:
                fail(weight, "precondition", str(exc), "satisfied", "q", q)
                continue
            if back != q:
                fail(weight, "round trip", back, q, "q", q)


def verify_bijection(min_part, max_part, weight, num_parts, cap=DEFAULT_ENUMERATION_CAP):
    """Check the transport bijection for one (min_part, max_part, weight,
    num_parts) tuple: ``_verify_weights`` over the window of this one
    weight.

    Verifies that reduce is into the reduced side, expand is into the
    original side, both round trips are identities, reduce preserves the
    shifted weight, and the two sides have equal cardinality.  Returns a
    VerificationReport with ``checked == 1``.

    The integer arguments are checked once here, not again for every
    partition that ``reduce`` and ``expand`` map.  An enumerated partition
    that they refuse is recorded as a failure, not raised.
    """
    _check_interval(min_part, max_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    check_int(PreconditionViolation, 0, "weight", weight)
    report = VerificationReport(
        identity_id=Identity.BIJECTION_ROUND_TRIP,
        swept_ranges={
            "min_part": str(min_part),
            "max_part": str(max_part),
            "weight": str(weight),
            "num_parts": str(num_parts),
        },
    )
    _verify_weights(report, min_part, max_part, num_parts, weight, weight, cap)
    return report
