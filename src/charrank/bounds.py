"""Betti-number upper bounds from a sparse characteristic-class profile.

A BundleProfile captures what the bound needs to know about a space X
carrying a real vector bundle: the top degree ``dim_x`` with nonzero
cohomology (possibly UNBOUNDED), the set ``s_set`` of degrees i in which
the i-th Stiefel-Whitney class of the bundle may be nonzero, and a degree
``t`` up to which cohomology is known to be generated by those classes
(a verified lower bound for the characteristic rank, possibly UNBOUNDED).

In any degree j <= t, every cohomology class is a polynomial in the
nonzero Stiefel-Whitney classes, so the mod-2 Betti number b_j is at most
the number of degree-j monomials in generators of those degrees — a
restricted partition count.  ``betti_upper_bound`` evaluates that count,
``monomial_count``, directly; ``betti_upper_bound_gapless`` evaluates the
equivalent sum of Betti numbers of real Grassmannians when the truncated
degree set has no gaps.  That sum runs on the ``box_sum`` kernel, which
the identity checks call too; it walks one Gaussian-binomial row up in s
instead of building a new box row for every term.
"""

from charrank import _dispatch
from charrank._record import Frozen
from charrank.errors import DegreeOutOfRange, NotGapless, PreconditionViolation, check_int
from charrank.partitions import PartsSet, count_set_any

#: Marker for "no known finite bound" (compares above every integer).
UNBOUNDED = float("inf")


def _check_extent(name, value):
    if value != UNBOUNDED:
        check_int(PreconditionViolation, 1, f"{name} (unless UNBOUNDED)", value)


class BundleProfile(Frozen):
    """The inputs to the Betti bound; validated on construction."""

    __match_args__ = ("dim_x", "s_set", "t")

    def __init__(self, dim_x, s_set, t):
        _check_extent("dim_x", dim_x)
        _check_extent("t", t)
        if not isinstance(s_set, PartsSet):
            s_set = PartsSet(s_set)
        if t > dim_x:
            raise PreconditionViolation(f"t={t} exceeds dim_x={dim_x}")
        if s_set.greatest > dim_x:
            raise PreconditionViolation(
                f"degree {s_set.greatest} in s_set exceeds dim_x={dim_x}"
            )
        self._assign(dim_x, s_set, t)


def _check_degree(profile, degree):
    check_int(DegreeOutOfRange, 1, "degree", degree)
    if degree > profile.t:
        raise DegreeOutOfRange(
            f"degree {degree} exceeds the verified generation range t={profile.t}"
        )


def betti_upper_bound(profile, degree):
    """Upper bound for the mod-2 Betti number of the base in ``degree``:
    the number of degree-``degree`` monomials in generators of the
    profile's degrees, ``monomial_count``: partitions of ``degree`` into
    parts from that set (the kernels drop the values above ``degree``,
    which can never occur)."""
    _check_degree(profile, degree)
    return monomial_count(profile.s_set, degree)


def betti_upper_bound_gapless(profile, degree):
    """Same bound, evaluated through the box-partition form.

    Requires the degrees of the profile that are <= ``degree`` to form a
    consecutive run {lo, .., hi} (NotGapless otherwise).  The count then
    transports to partitions in boxes: summing over the number of parts s,
    partitions of degree - lo*s into at most s parts each at most hi - lo,
    the paper's sum of b_(degree - lo*s)(G_s(R^(hi - lo + s))).  The box
    holds none outside ceil(degree/hi) <= s <= degree // lo, and the
    ``box_sum`` kernel starts its chain at the first of them.
    """
    _check_degree(profile, degree)
    usable = profile.s_set.truncated(degree)
    if not usable:
        return 0
    if not PartsSet(usable).is_gapless():
        raise NotGapless(
            f"degrees {list(usable)} are not consecutive; use betti_upper_bound"
        )
    return _dispatch.box_sum(usable[0], usable[-1], degree)


def monomial_count(parts, degree):
    """Number of degree-``degree`` monomials in commuting generators whose
    degrees are the distinct values of ``parts`` (each generator usable any
    number of times)."""
    check_int(ValueError, 1, "degree", degree)
    return count_set_any(parts, degree)
