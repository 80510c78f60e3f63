"""Exact counting and explicit enumeration of integer partitions.

Counting here follows the usual conventions: the empty partition is the
unique partition of 0, and "exactly zero parts" admits only weight 0.
``Partition`` and ``PartsSet`` are immutable values in canonical order.
Counts are computed by dynamic programming (see ``_dispatch``); the
enumeration functions exist mainly so tests and the verification sweeps
can cross-check the counts against something that cannot share a bug with
them.  Each kind of enumeration has one depth-first descent over parts in
decreasing order, which lists a whole window of weights at once, bucketed
by weight (``_box_parts``, ``_set_exact_parts``).  The descent carries
the parts chosen so far as a tuple prefix and lists the last part in a
loop, without a call per partition.  These two window enumerators own
the enumeration cap and the empty cases: each checks every weight of its
window against the cap before it descends.  Of the sweeps only the
bijection sweep runs them, once per grid cell on part tuples (the oracle
sweep counts multisets with ``oracles.multiset_weights`` instead);
``enumerate_box`` and ``enumerate_set_exact`` run them over the window of
one weight and wrap each tuple in a ``Partition``.

Each integer argument is checked once.  ``count_box``, ``count_set_any``
and ``count_total`` pass theirs straight to the kernel, which checks them
under the names used here (``_kernels_py``; the compiled kernels hand a
bad argument to it).  ``count_set_exact`` and ``count_set_at_most`` check
theirs first, as they compute with them before any kernel call, and
``_as_members`` checks the parts, which no kernel does.
"""

from bisect import bisect_right

from charrank import _dispatch
from charrank._record import Frozen
from charrank.errors import CapExceeded, check_int

#: Default bound on the effective search box (largest part x number of
#: parts) accepted by the enumeration functions.
DEFAULT_ENUMERATION_CAP = 64


class Partition(Frozen):
    """An integer partition, stored as its parts in non-increasing order.

    Accepts the parts in any order and canonicalizes; every part must be a
    positive integer.  Partitions compare and hash by their part tuple, so
    they can live in sets and dicts.
    """

    __match_args__ = ("parts",)

    def __init__(self, parts=()):
        collected = list(parts)
        check_int(ValueError, 1, "each part", *collected)
        self._assign(tuple(sorted(collected, reverse=True)))

    @classmethod
    def _canonical(cls, parts):
        """A Partition of ``parts``, a tuple of positive integers already in
        non-increasing order, stored as it is without the check."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "parts", parts)
        return partition

    @property
    def weight(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"


class PartsSet(Frozen):
    """A finite, nonempty set of distinct positive integers — the allowed
    part values for the restricted counts below.  Kept in ascending order.
    """

    __match_args__ = ("members",)

    def __init__(self, members):
        self._assign(_as_members(members))
        if not self.members:
            raise ValueError("a PartsSet needs at least one value")

    @classmethod
    def interval(cls, lo, hi):
        """The consecutive run {lo, lo+1, .., hi}."""
        check_int(ValueError, 1, "lo", lo)
        check_int(ValueError, lo, "hi", hi)
        return cls(range(lo, hi + 1))

    @property
    def least(self):
        return self.members[0]

    @property
    def greatest(self):
        return self.members[-1]

    def is_gapless(self):
        """True when the members form a consecutive run."""
        return self.greatest - self.least + 1 == len(self.members)

    def truncated(self, bound):
        """The members that are <= bound, as a plain tuple (possibly empty)."""
        return tuple(m for m in self.members if m <= bound)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, value):
        return value in self.members

    def __repr__(self):
        return f"PartsSet({list(self.members)!r})"


def _as_members(parts):
    """Normalize ``parts`` (a PartsSet or any iterable of values) to an
    ascending tuple of distinct positive integers.  May be empty."""
    if isinstance(parts, PartsSet):
        return parts.members
    collected = list(parts)
    check_int(ValueError, 1, "each part value", *collected)
    return tuple(sorted(set(collected)))


def count_box(max_part, max_parts, weight):
    """Partitions of ``weight`` into at most ``max_parts`` parts, each at
    most ``max_part``.  Equivalently: partitions fitting in a
    max_part x max_parts box."""
    return _dispatch.box_count(max_part, max_parts, weight)


def count_set_exact(parts, num_parts, weight):
    """Partitions of ``weight`` into exactly ``num_parts`` parts, all drawn
    from ``parts`` (with repetition).

    Such a partition weighs from num_parts * least to num_parts * greatest
    of ``parts``; outside that window the count is 0 and no kernel runs.
    Nor does one run when at most one part is at most ``weight``, as
    ``set_any_count`` does: with none, only the empty partition counts,
    and with the least part alone, only num_parts copies of it.
    """
    members = _as_members(parts)
    check_int(ValueError, 0, "num_parts", num_parts)
    check_int(ValueError, 0, "weight", weight)
    usable = bisect_right(members, weight)
    if usable < 2:  # only the least part fits, or none does
        return int(weight == num_parts * members[0]) if usable else int(num_parts == weight == 0)
    if not num_parts * members[0] <= weight <= num_parts * members[-1]:
        return 0
    return _dispatch.set_exact_counts(members, num_parts, weight)[num_parts]


def count_set_at_most(parts, max_parts, weight):
    """Partitions of ``weight`` into at most ``max_parts`` parts from
    ``parts``; the empty partition counts when ``weight`` is 0.

    Two routes give the count.  No more than weight // least parts fit in
    ``weight``, so from that many on the bound never binds: the count is
    the coefficient of q^weight in prod_{v in parts} 1 / (1 - q^v), which
    the 1-D ``set_any_count`` reads from one slot of its row.  A bound
    below it binds, and the count sums the rows of the 2-D
    ``set_exact_counts`` table.  Both kernels refuse (``TableTooLarge``) a
    call whose row of weights times parts (for the 2-D table, its
    max_parts + 1 rows) passes ``_kernels_py.MAX_TABLE_CELLS``.  Neither
    runs when at most one part is at most ``weight``, as in
    ``count_set_exact``: with none, only the empty partition counts, and
    with the least part alone, only weight // least copies of it, if they
    make up ``weight`` and the bound admits that many.
    """
    members = _as_members(parts)
    check_int(ValueError, 0, "max_parts", max_parts)
    check_int(ValueError, 0, "weight", weight)
    usable = bisect_right(members, weight)
    if usable < 2:  # only the least part fits, or none does
        if not usable:
            return int(weight == 0)
        return int(weight % members[0] == 0 and weight // members[0] <= max_parts)
    if max_parts >= weight // members[0]:
        return _dispatch.set_any_count(members, weight)
    return sum(_dispatch.set_exact_counts(members, max_parts, weight))


def count_set_any(parts, weight):
    """Partitions of ``weight`` into any number of parts from ``parts``:
    the top slot of the 1-D ``set_any_count`` row, as ``count_set_at_most``
    takes it for a bound that never binds.  When no part is at most
    ``weight``, the kernel answers that only the empty partition can count,
    and builds no row."""
    return _dispatch.set_any_count(_as_members(parts), weight)


def count_total(weight):
    """The unrestricted partition number p(weight), one point query of the
    serving backend (``partition_count``).  Each backend picks its own
    route: the compiled one sums one row of machine words up to weight
    ``_kernels_c.SAFE_WEIGHT``; the pure one reads its Durfee squares up to
    ``_kernels_py.SERIES_CUT`` and sums the Hardy-Ramanujan-Rademacher
    series past it, which is certified to round to p(weight), and serves
    the compiled one past ``SAFE_WEIGHT``.
    """
    return _dispatch.partition_count(weight)


def _check_cap(largest, slots, weights, cap):
    """Refuse (``CapExceeded``) the first weight in ``weights``, an
    ascending range, whose effective search box, largest part times number
    of parts, both clamped to the weight, exceeds ``cap``, a nonnegative
    integer.  The box grows with the weight, so a range whose last weight
    passes passes whole."""
    check_int(ValueError, 0, "cap", cap)
    if not weights or min(largest, weights[-1]) * min(slots, weights[-1]) <= cap:
        return
    for weight in weights:
        rows, cols = min(largest, weight), min(slots, weight)
        if rows * cols > cap:
            raise CapExceeded(
                f"enumeration box {rows}x{cols} exceeds the cap of {cap}; "
                "raise `cap` to insist"
            )


def _box_parts(max_part, max_parts, lo, hi, cap=DEFAULT_ENUMERATION_CAP):
    """Part tuples of the partitions that fit in a max_part x max_parts
    box, one list per weight lo..hi, each lexicographically decreasing.

    Every weight of the window passes the cap check first, in weight order.
    One depth-first descent then serves every weight of the window.  Parts
    are tried largest first, and two partitions of one weight first differ
    at a part that both have, so the descent reaches the larger one first.
    """
    _check_cap(max_part, max_parts, range(lo, hi + 1), cap)
    buckets = [[] for _ in range(hi - lo + 1)]

    def descend(prefix, total, largest, slots):
        if total >= lo:
            buckets[total - lo].append(prefix)
        if slots == 1:
            # the last part: each v that reaches the window, listed in place
            for v in range(min(largest, hi - total), max(lo - total, 1) - 1, -1):
                buckets[total + v - lo].append(prefix + (v,))
            return
        if slots == 0:
            return
        for v in range(min(largest, hi - total), 0, -1):
            if v * slots < lo - total:
                break  # v and everything smaller can no longer reach the window
            descend(prefix + (v,), total + v, v, slots - 1)

    descend((), 0, max_part, max_parts)
    return buckets


def _set_exact_parts(members, num_parts, lo, hi, cap=DEFAULT_ENUMERATION_CAP):
    """Part tuples of the partitions into exactly ``num_parts`` parts from
    ``members`` (ascending, possibly empty), one list per weight lo..hi,
    each lexicographically decreasing.

    The weights that ``num_parts`` parts can reach pass the cap check
    first, in weight order; then one descent runs, as in ``_box_parts``.
    Empty ``members`` leave only the empty partition, at weight 0 with no
    parts.
    """
    least, largest = (members[0], members[-1]) if members else (0, 0)
    _check_cap(largest, num_parts, range(max(lo, num_parts), hi + 1), cap)
    buckets = [[] for _ in range(hi - lo + 1)]
    descending = members[::-1]

    def descend(prefix, total, start, slots):
        if slots == 1:
            # the last part: each member that lands in the window, in place
            for v in descending[start:]:
                if v < lo - total:
                    break
                if total + v <= hi:
                    buckets[total + v - lo].append(prefix + (v,))
            return
        for i in range(start, len(descending)):
            v = descending[i]
            if v * slots < lo - total:
                break  # even all-v can't reach the window, nor can smaller values
            if total + v + (slots - 1) * least > hi:
                continue  # v is too large to leave the other slots viable
            descend(prefix + (v,), total + v, i, slots - 1)

    if num_parts == 0:  # only the empty partition, at weight 0
        if lo == 0:
            buckets[0].append(())
    else:
        descend((), 0, 0, num_parts)
    return buckets


def enumerate_box(max_part, max_parts, weight, cap=DEFAULT_ENUMERATION_CAP):
    """All partitions counted by ``count_box``, largest-part-first within
    each partition and lexicographically decreasing across the list.

    Refuses (``CapExceeded``) when the effective search box — largest part
    times number of parts, both clamped to ``weight`` — exceeds ``cap``.
    """
    check_int(ValueError, 0, "max_part", max_part)
    check_int(ValueError, 0, "max_parts", max_parts)
    check_int(ValueError, 0, "weight", weight)
    (found,) = _box_parts(max_part, max_parts, weight, weight, cap)
    return [Partition._canonical(parts) for parts in found]


def enumerate_set_exact(parts, num_parts, weight, cap=DEFAULT_ENUMERATION_CAP):
    """All partitions counted by ``count_set_exact``, lexicographically
    decreasing.  Same cap policy as ``enumerate_box``, applied only when
    ``num_parts`` parts can reach ``weight``."""
    members = _as_members(parts)
    check_int(ValueError, 0, "num_parts", num_parts)
    check_int(ValueError, 0, "weight", weight)
    (found,) = _set_exact_parts(members, num_parts, weight, weight, cap)
    return [Partition._canonical(parts) for parts in found]
