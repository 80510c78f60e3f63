"""The weight-transport bijection behind the interval-restricted counts.

Subtracting the least allowed value from every part of a partition (and
discarding the zeros that appear) is a bijection

    partitions of w into exactly x parts, each in {lo, .., hi}
      <-->
    partitions of w - lo*x into at most x parts, each at most hi - lo,

with inverse "add lo to every part, then pad with parts equal to lo".
The reduced side is the (hi - lo) x x box that ``enumerate_box`` lists.
``verify_bijection`` enumerates both sides for one parameter tuple and
checks the round trips and the cardinality transfer element by element.
"""

from charrank.errors import PreconditionViolation, check_int
from charrank.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    enumerate_box,
    enumerate_set_exact,
)
from charrank.report import Identity, VerificationReport


def _check_interval(min_part, max_part):
    check_int(PreconditionViolation, 1, "least part", min_part)
    check_int(PreconditionViolation, min_part, "greatest part", max_part)


def reduce(p, num_parts, min_part, max_part):
    """Subtract ``min_part`` from every part of ``p`` and drop the zeros.

    ``p`` must consist of exactly ``num_parts`` parts, every one of them in
    [min_part, max_part]; anything else raises PreconditionViolation.
    """
    _check_interval(min_part, max_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    return _reduce(p, num_parts, min_part, max_part)


def _reduce(p, num_parts, min_part, max_part):
    """``reduce`` for integer arguments already checked."""
    if not isinstance(p, Partition):
        p = Partition(p)
    if len(p) != num_parts:
        raise PreconditionViolation(f"expected exactly {num_parts} parts, got {len(p)}")
    for v in p:
        if not min_part <= v <= max_part:
            raise PreconditionViolation(
                f"part {v} falls outside [{min_part}, {max_part}]"
            )
    return Partition._canonical(tuple([v - min_part for v in p if v > min_part]))


def expand(q, num_parts, min_part):
    """Add ``min_part`` to every part of ``q``, then pad with parts equal
    to ``min_part`` until there are exactly ``num_parts`` parts.

    ``q`` may have at most ``num_parts`` parts.
    """
    check_int(PreconditionViolation, 1, "least part", min_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    return _expand(q, num_parts, min_part)


def _expand(q, num_parts, min_part):
    """``expand`` for integer arguments already checked."""
    if not isinstance(q, Partition):
        q = Partition(q)
    if len(q) > num_parts:
        raise PreconditionViolation(
            f"expected at most {num_parts} parts, got {len(q)}"
        )
    grown = [v + min_part for v in q]
    grown.extend([min_part] * (num_parts - len(q)))
    return Partition._canonical(tuple(grown))


def verify_bijection(min_part, max_part, weight, num_parts, cap=DEFAULT_ENUMERATION_CAP):
    """Check the transport bijection for one (min_part, max_part, weight,
    num_parts) tuple: enumerate both sides, the reduced one by ``enumerate_box``.

    Verifies that reduce is into the reduced side, expand is into the
    original side, both round trips are identities, reduce preserves the
    shifted weight, and the two sides have equal cardinality.  Returns a
    VerificationReport with ``checked == 1``.

    The integer arguments are checked once here, not again for every
    partition that ``reduce`` and ``expand`` map.  An enumerated partition
    that they refuse (wrong number of parts, or a part outside the
    interval) is recorded as a failure, not raised.
    """
    _check_interval(min_part, max_part)
    check_int(PreconditionViolation, 1, "number of parts", num_parts)
    check_int(PreconditionViolation, 0, "weight", weight)

    tag = (
        ("min_part", min_part),
        ("max_part", max_part),
        ("weight", weight),
        ("num_parts", num_parts),
    )
    report = VerificationReport(
        identity_id=Identity.BIJECTION_ROUND_TRIP,
        swept_ranges={k: str(v) for k, v in tag},
        checked=1,
    )

    interval = range(min_part, max_part + 1)
    domain = enumerate_set_exact(interval, num_parts, weight, cap=cap)

    residual = weight - min_part * num_parts
    codomain = (
        enumerate_box(max_part - min_part, num_parts, residual, cap=cap) if residual >= 0 else []
    )
    codomain_set = set(codomain)

    report.compare(tag + (("check", "cardinality"),), len(domain), len(codomain))

    # Partitions go into comparisons and tags as objects, not reprs: a
    # rendered failure shows their str, which is their repr.
    for p in domain:
        try:
            q = _reduce(p, num_parts, min_part, max_part)
        except PreconditionViolation as exc:
            report.compare(tag + (("check", "precondition"), ("p", p)), str(exc), "satisfied")
            continue
        if q not in codomain_set:
            report.compare(tag + (("check", "image membership"),), q, "reduced side")
            continue
        report.compare(tag + (("check", "shifted weight"), ("p", p)), q.weight, residual)
        back = _expand(q, num_parts, min_part)
        report.compare(tag + (("check", "round trip"), ("p", p)), back, p)

    domain_set = set(domain)
    for q in codomain:
        try:
            p = _expand(q, num_parts, min_part)
            if p not in domain_set:
                report.compare(tag + (("check", "preimage membership"), ("q", q)), p, "original side")
                continue
            back = _reduce(p, num_parts, min_part, max_part)
        except PreconditionViolation as exc:
            report.compare(tag + (("check", "precondition"), ("q", q)), str(exc), "satisfied")
            continue
        report.compare(tag + (("check", "round trip"), ("q", q)), back, q)

    return report
