"""Pure-Python counting kernels.

These are the reference implementations of the dynamic-programming cores,
and of the Rademacher series for p(n).  A compiled twin (``_kernels_c``)
provides seven of the eight entry points; the active backend is chosen in
``_dispatch``.  The eighth, ``partition_number``, is pure-only: it works
on big integers from its first term, so ``_dispatch`` serves it from here
on both backends.  Everything here works with native Python integers, so
results are exact at any size.

Two dynamic programs serve the six table entry points:

* ``_part_rows``, the 2-D table indexed by (parts used, weight), serves
  only ``set_exact_counts``.  Each row is one int, the count for weight w
  in a slot of ``bits`` bits from bit w * bits on (Kronecker substitution),
  so adding a part to a row is one shift, one add and one mask of big
  integers instead of one interpreter step per cell.  The sums run mod
  2**(width * bits), as the compiled twin's run mod 2**64; they are exact
  because every count a slot ever holds fits in it.  ``set_exact_counts``
  proves that before it picks the width; the compiled twin, whose tables
  stop at weight ``_kernels_c.SAFE_WEIGHT``, hands it every larger call.
* the 1-D table indexed by weight adds parts with no bound on their
  number.  A box row (``_box_row``: every box, and the chained box sum
  ``box_sum``) and a set-any row (``set_any_count``) are one int in such
  slots too: a numerator factor 1 - q^g is one shift, subtract and mask,
  and ``_divide`` divides by 1 - q^v in ceil(log2(width / v))
  shift-add-masks, as prod_j (1 + q^(2^j v)) = 1 / (1 - q^v) mod q^width.
  A box slot needs only the bits of the box total or less (``_box_bits``),
  a set-any slot those of p(w) or of its k - 1 least multiplicities, and
  a point query reads one slot.  Only ``partition_table``, whose counts
  are all of p(0..n), keeps a list of Python ints: each of its Durfee
  squares runs its own loop, below.

Each entry point first checks its integer arguments with
``errors.check_int``, named as the public counts name them (``max_part``,
``max_parts``, ``num_parts``, ``weight``, ``lo``, ``hi``; ``box_table``
its two box sides).  ``count_box``, ``count_set_any`` and
``count_total`` pass theirs straight on, and the compiled twin hands every
argument it does not count with, a bool among them, to its twin here: on
both backends those errors come from this module.

All eight entry points refuse a call by one rule, ``_check_row``, before
they build a row or sum a term (``partition_count`` by its route's): its
weights times the parts it adds, at least one, may not pass
``MAX_TABLE_CELLS``.  The series is priced as a row of its n + 1 weights
and one part, so it serves n up to 2**25 - 1.  ``set_any_count`` and
``box_sum`` answer a call that at most one part fits before they price it.

``partition_table`` sums Euler's 1/(q;q)_inf by Durfee squares,
sum_s q^(s^2) / (q;q)_s^2 (Andrews, *The Theory of Partitions*, ch. 2):
a partition whose largest square has side s is that square, a partition
into at most s parts right of it and one into parts at most s below it.
Each square divides by (1 - q^s)^2 in one slice statement per residue
class mod s, which slices the class once, sums it twice and writes it back
once: about (4/3) n^1.5 additions in all instead of n^2 / 2.
It shares no step with Euler's pentagonal-number recurrence, which
therefore stays in ``oracles`` as the independent cross-check.

``partition_number`` sums the Hardy-Ramanujan-Rademacher series for one
p(n) instead, in integer fixed point: about sqrt(n) terms, term k at the
precision its own size needs.  Every real in it is a ball, a midpoint and
a radius in integers, and each operation widens the radius by a bound on
what it rounded away, so the sum comes with a proved error bound.  Adding
Rademacher's bound on the terms left out, it returns the nearest integer
only when the sum is within 1/2 of it, and raises ArithmeticError
otherwise.  Its terms are cheaper than they look: for odd k, l and l + k
both solve Selberg's congruence, as their difference adds 3lk + k(3k+1)/2,
a multiple of k, and their summands are equal, as both the sign and the
cosine flip; so an odd k scans l < k and doubles the ball.  For even k the
difference is k/2 mod k, and there is nothing to fold.  As x_2k = x_k / 2,
one ``_exp`` serves the chain k, 2k, 4k, ... of each odd k, and pi comes
from Chudnovsky's series.

``partition_count`` serves one p(n), and so ``count_total``: the Durfee
squares up to ``SERIES_CUT`` and the series past it, as each is the
cheaper there.  The compiled twin keeps its own route up to
``_kernels_c.SAFE_WEIGHT`` and hands larger weights here.

Every table path adds and subtracts native integers along an exact
recurrence (the packed ones in slots that provably hold every count), and
conjugation and clamping are identities of partition counts, so the
results equal those of the plain cell-by-cell loops at any size.  All
functions are pure: each call builds its own tables and no module state
is ever mutated, so concurrent use from multiple threads is safe by
construction.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import ceil, comb, factorial, isqrt, log, log2, pi, sinh, sqrt
from sys import byteorder

from charrank.errors import TableTooLarge, check_int

BACKEND = "python"

#: Most row entries times parts a kernel call may price at (2**25); past it
#: ``_check_row`` refuses the call with TableTooLarge.  The 2-D table of
#: ``set_exact_counts`` prices its c + 1 weights times its b + 1 rows, one
#: per number of parts; ``box_table`` its a*b + 1 weights times min(a, b);
#: ``partition_number`` its n + 1 weights times one part.
#: It bounds entries, not bytes.  A 2-D, box or set-any entry is a slot of
#: the bits its proved bound needs (``set_exact_counts``, ``_box_bits``,
#: ``set_any_count``), and a Durfee row holds one Python int per entry.
#: ``charrank count set-any --parts 1,2,3 20000000`` is refused; at
#: 11,184,809, the largest weight the bound passes for those parts, it
#: peaked at 467 MB in a child process (CPython 3.11, x86-64): some 42
#: bytes an entry, as the row of 49-bit slots is held several times over
#: by the temporaries of ``_divide``.  ROADMAP.md's memory-budget item
#: prices entries in bytes.
MAX_TABLE_CELLS = 2**25

#: ``partition_number`` rounds its sum at this many fractional bits plus
#: the bit length of four times the terms of its first budget.
SERIES_BITS = 10

#: Bounds on the remainder of the series, in 64ths, that
#: ``partition_number`` adds terms up to in turn, until its sum is
#: certified.  The actual remainder is far below the bound: past the first
#: (7/16) every weight from 2 to 6,000 and 60 random weights up to 10**6
#: were certified, with at least 0.048 to spare (rounding took at most
#: 0.0005).  The last (15/64) certifies every correct sum with less than
#: 1/64 of rounding error (at most 0.001 from 2 to 3,000), which then lies
#: within 1/4 of p(n).
TAIL_BUDGETS = (28, 15)

#: ``_exp`` halves its argument below 2**-EXP_REDUCE before the Taylor
#: series, then squares the result back as many times.  Each squaring
#: doubles the rounding error, so ``partition_number`` adds EXP_REDUCE
#: guard bits.  At 5 the series ran 1.04x faster than at 8 on the
#: bound-queries weights past 417, and every sum still certified.
EXP_REDUCE = 5

#: ``partition_count`` reads the Durfee squares up to this weight and sums
#: the Rademacher series past it.  The two cost the same near 240, Durfee
#: against series: 0.13 against 0.15 ms at 200, 0.15 against 0.17 at 220,
#: 0.17 against 0.17 at 235, 0.17 against 0.16 at 240, 0.18 against 0.16 at
#: 260 and 0.37 against 0.19 at 416 (best of 15, mean over 11 weights,
#: CPython 3.11, x86-64).
#: The compiled twin keeps its own cut at ``_kernels_c.SAFE_WEIGHT``.
SERIES_CUT = 240


def _part_rows(parts, rows: int, width: int, bits: int) -> list:
    """Rows 0..rows of the counts of partitions into exactly p parts from
    ``parts``, row p packed into one int: the count for weight w < ``width``
    in bits [w * bits, (w + 1) * bits).  ``parts`` must be an ascending
    sequence of positive integers below ``width``, and ``bits`` must hold
    every count the rows reach.

    Adding part v splits on whether v occurs:

        f(v, p, w) = f(v-1, p, w) + f(v, p-1, w-v)

    so row p gains row p - 1 shifted up by v slots.  Rows are taken with p
    ascending, so the row below already holds f(v, p-1, .) when row p reads
    it.  Row p - 1 is zero below (p-1) * least, so the pass for v stops at
    the first row whose shifted row starts at ``width`` or past it.  Each
    row is cut to ``width`` slots: the sums run mod 2**(width * bits), and
    carries and shifts only move up, so a slot below ``width`` never sees
    what is cut off above it.
    """
    table = [1] + [0] * rows
    mask = (1 << width * bits) - 1
    for v in parts:
        shift = v * bits
        below = table[0]
        for p in range(1, min(rows, (width - 1 - v) // parts[0] + 1) + 1):
            below = table[p] = (table[p] + (below << shift)) & mask
    return table


def _apostol_bits(c: int) -> int:
    """A bit count X with p(w) <= p(c) < 2**(X + 1) for every w <= c, by
    Apostol's bound on p(c) (see ``set_exact_counts``)."""
    return int(pi * sqrt(2 * c / 3) / log(2)) + 1


def _check_row(entries: int, parts: int) -> None:
    """Refuse (TableTooLarge) a call that adds ``parts`` parts to a row of
    ``entries`` weights, before any row is built, once the product passes
    ``MAX_TABLE_CELLS``: the one size rule of every entry point.  A
    row is priced as at least one part, since it is built even when no
    part reaches it."""
    parts = max(parts, 1)
    if entries * parts > MAX_TABLE_CELLS:
        raise TableTooLarge(
            f"a row of {entries} weights times {parts} parts exceeds the limit of "
            f"{MAX_TABLE_CELLS} cells"
        )


def _box_row(a: int, b: int, width: int, bits: int) -> int:
    """Counts of partitions in an a-by-b box for weights below ``width``,
    packed as in ``_part_rows``: with a <= b, the coefficients of
    prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i) (Andrews, *The Theory of
    Partitions*, Thm 3.1).  Each numerator factor below ``width`` is one
    shift, subtract and mask; ``_divide`` divides by each 1 - q^i.

    q -> 2**bits maps Z[q] mod q^width onto the ints mod 2**(width * bits)
    as a ring, so the row is exact when every count of the box fits in
    ``bits`` (``_box_bits``), whatever the steps between held.

    The row is a palindrome: taking each partition's complement in the box
    maps weight w to a*b - w.  So ``box_count`` folds its weight into the
    lower half and ``box_table`` mirrors it.  ``box_sum`` seeds its chain
    with a row that may run past the middle, and past a*b, where it is 0.
    """
    a, b = min(a, b), max(a, b)
    mask = (1 << width * bits) - 1
    row = 1
    for g in range(b + 1, min(a + b, width - 1) + 1):
        row = (row - (row << g * bits)) & mask
    for i in range(1, a + 1):
        row = _divide(row, i, width, bits, mask)
    return row


def _divide(row: int, v: int, width: int, bits: int, mask: int) -> int:
    """A packed row divided by 1 - q^v mod q^width: times 1 + q^(2^j v)
    for j = 0..J-1, J the least with 2^J v >= width, as their product is
    (1 - q^(2^J v)) / (1 - q^v)."""
    while v < width:
        row = (row + (row << v * bits)) & mask
        v += v
    return row


def _box_bits(a: int, b: int, c: int) -> int:
    """Slot bits that hold every count of weight <= c in an a-by-b box.
    With k = min(a, b), each count is at most the box total C(a+b, k), at
    most p(c) < 2**(X + 1) (X of ``_apostol_bits``), and at most the
    partitions of c + k into exactly k parts: adding k - i to the
    i-th largest makes the parts distinct, and their k! orders are distinct
    compositions of c + k(k+1)/2, so there are C(c + k(k+1)/2 - 1, k - 1)
    / k! or fewer."""
    k = min(a, b)
    at_most_k = comb(c + k * (k + 1) // 2 - 1, k - 1) // factorial(k) if k else 1
    return min(comb(a + b, k).bit_length(), at_most_k.bit_length(), _apostol_bits(c) + 1)


def box_count(a: int, b: int, c: int) -> int:
    """Number of partitions of c into at most b parts, each part <= a."""
    check_int(ValueError, 0, "max_part", a)
    check_int(ValueError, 0, "max_parts", b)
    check_int(ValueError, 0, "weight", c)
    a, b = min(a, c), min(b, c)  # parts are >= 1: bounds beyond c are inert
    if c > a * b:
        return 0
    c = min(c, a * b - c)  # the row is a palindrome
    _check_row(c + 1, min(a, b))
    bits = _box_bits(a, b, c)
    return _box_row(a, b, c + 1, bits) >> c * bits  # the top slot alone


def box_table(a: int, b: int) -> list:
    """Partition counts in an a-by-b box, one entry per weight 0..a*b.

    Slots of up to 64 bits are widened to 8, 16, 32 or 64 bits, so the
    lower half unpacks in one ``memoryview`` cast; wider ones are read
    from the row's binary digits."""
    check_int(ValueError, 0, "each box side", a, b)
    _check_row(a * b + 1, min(a, b))
    top = a * b // 2  # the lower half ends at weight top
    bits = _box_bits(a, b, top)
    if bits <= 64:
        bits = max(8, 1 << (bits - 1).bit_length())
    row = _box_row(a, b, top + 1, bits)
    if bits > 64:
        digits = f"{row:0{(top + 1) * bits}b}"
        half = [int(digits[i - bits : i], 2) for i in range(len(digits), 0, -bits)]
    else:
        half = memoryview(row.to_bytes((top + 1) * bits // 8, byteorder))
        half = half.cast("BHIQ"[bits.bit_length() - 4]).tolist()
    return half + half[: (a * b + 1) // 2][::-1]  # the row is a palindrome


def box_sum(lo: int, hi: int, weight: int) -> int:
    """Partitions of ``weight`` into parts from {lo..hi}, as the paper's sum
    over s of b_(weight - lo*s)(G_s(R^(m + s))), m = hi - lo: the counts of
    weight - lo*s in an m-by-s box.

    One packed row walks up in s along

        [m+s, s]_q = [m+s-1, s-1]_q * (1 - q^(m+s)) / (1 - q^s)

    (Andrews, *The Theory of Partitions*, ch. 3), for every s up to
    weight // lo.  Before step s it is cut to the weight - lo*s + 1 slots
    that term s and the later ones read, and term s is its top slot.  Its
    slots hold every count of the largest box, m by weight // lo.  An
    m-by-s box holds at most m*s, so the terms below s = ceil(weight/hi)
    are zero: the chain is seeded with the row after step
    ceil(weight/hi) - 1, the box row ``_box_row`` builds in one pass.
    """
    check_int(ValueError, 1, "lo", lo)
    check_int(ValueError, lo, "hi", hi)
    check_int(ValueError, 0, "weight", weight)
    if weight < lo or lo == hi:  # at most one part fits: its multiples count
        return int(weight % lo == 0)
    _check_row(weight + 1, weight // lo)
    m = hi - lo
    bits = _box_bits(m, weight // lo, weight)
    seed = -(-weight // hi) - 1  # the step before the first nonzero term
    width = weight - lo * seed + 1
    row = _box_row(m, seed, width, bits)  # the row after step seed
    mask = (1 << width * bits) - 1
    total = 0  # terms 0..seed are zero
    for s in range(seed + 1, weight // lo + 1):
        width -= lo
        mask >>= lo * bits
        g = m + s
        if g < width:
            row -= row << g * bits
        # cut here, as a step with no room for part s runs no doubling pass
        row = _divide(row & mask, s, width, bits, mask)
        total += row >> (width - 1) * bits
    return total


def set_exact_counts(parts: tuple, b: int, c: int) -> list:
    """Counts of partitions of c into exactly s parts from ``parts``,
    for every s in 0..b (a list of length b+1), one per row of the table.

    ``parts`` must be a strictly ascending tuple of positive integers.

    ``_check_row`` prices the b + 1 rows of c + 1 weights before anything
    is built.  No more than smax = min(b, c // least) parts fit in c, and
    they weigh at most smax times the greatest part: past that only the
    empty partition of 0 counts, and no table is built.  Otherwise rows
    past smax stay 0, as each pass of ``_part_rows`` stops at the first
    row out of reach, and each row packs its c + 1 counts in slots of
    1 + X bits, X the least of three bounds, the first from
    ``_apostol_bits``.  Each slot counts the partitions of some
    w <= c into some p <= smax parts, from the parts added so far, and
    each bound puts every such count below 2**(X + 1):

    * p(w) <= p(c) < e**(pi sqrt(2c/3)) (Apostol, *Introduction to Analytic
      Number Theory*, Thm 14.5), taken in floats: X is the floor of the
      exponent in base 2, plus one, so a rounding error below 1 still
      leaves it above the exponent less one;
    * the p - 1 least parts of a partition into p parts are each at most c
      and fix the greatest one: at most c**(smax - 1) <= 2**X partitions;
    * a partition into p parts from the k parts <= c is a multiset of p of
      them: at most C(smax + k - 1, k - 1) < 2**X partitions.

    Its nonzero rows hold (smax + 1) * (c + 1) * (1 + X) bits at most.  The
    last two bounds keep that small where p(c) alone would not: one part
    from {1, 2} at weight 10**7 would need slots of some 11,700 bits.
    """
    check_int(ValueError, 0, "num_parts", b)
    check_int(ValueError, 0, "weight", c)
    _check_row(c + 1, b + 1)
    # more than c // least parts outweigh c; with no part only row 0 counts
    smax = min(b, c // parts[0]) if parts else 0
    if smax == 0 or c > smax * parts[-1]:
        return [int(c == 0)] + [0] * b
    k = bisect_right(parts, c)  # larger parts add nothing
    bits = 1 + min(
        _apostol_bits(c), (smax - 1) * c.bit_length(), comb(smax + k - 1, k - 1).bit_length()
    )
    table = _part_rows(parts[:k], b, c + 1, bits)
    return [row >> c * bits for row in table]


def set_any_count(parts: tuple, weight: int) -> int:
    """Partitions of ``weight`` into any number of parts from ``parts``:
    the coefficient of q^weight in prod_{v in parts} 1 / (1 - q^v).

    ``parts`` must be a strictly ascending tuple of positive integers.

    One packed row of weight + 1 slots, as ``_box_row``'s, is divided by
    1 - q^v on ``_divide`` for each of the k parts v <= weight, and the
    count is its top slot.  With one such part only its multiples count,
    and with none only the empty partition: then no row is built.  By the
    ring map of ``_box_row`` the row is exact when its slots hold every
    count of partitions of w <= weight into the k parts.  Each is at most p(weight) < 2**(X + 1) (X of
    ``_apostol_bits``), and at most (weight + 1)**(k - 1)
    <= 2**((k - 1) L), L the bit length of weight + 1, as the
    multiplicities of the k - 1 least parts fix that of the greatest.
    """
    check_int(ValueError, 0, "weight", weight)
    k = bisect_right(parts, weight)  # larger parts add nothing
    if k < 2:  # with one part only its multiples count, with none only 0
        return int(weight % parts[0] == 0) if k else int(weight == 0)
    _check_row(weight + 1, k)
    bits = 1 + min(_apostol_bits(weight), (k - 1) * (weight + 1).bit_length())
    row, mask = 1, (1 << (weight + 1) * bits) - 1
    for v in parts[:k]:
        row = _divide(row, v, weight + 1, bits, mask)
    return row >> weight * bits  # the top slot alone


def partition_table(n: int) -> list:
    """Unrestricted partition numbers p(0..n), by Durfee squares.

    Horner's rule on sum_s q^(s^2) / (q;q)_s^2 runs s from isqrt(n) down
    to 1 and sets T <- 1 + q^(2s-1) T / (1 - q^s)^2, from T = 1.  The
    squares below s shift T by (s-1)^2 more, so the new T is needed only
    up to weight n - (s-1)^2: its body is the old T up to n - s^2, divided
    by (1 - q^s)^2 and written from weight 2s-1 on.  Each residue class
    mod s is sliced once, summed twice and written back once.  The old T
    is zero at weights 1..2s, so one list is updated in place.

    Deliberately not the pentagonal-number recurrence: that one lives in
    ``oracles`` and serves as the independent cross-check.
    """
    check_int(ValueError, 0, "weight", n)
    _check_row(n + 1, 2 * isqrt(n))  # each square adds part s twice
    table = [1] + [0] * n
    for s in range(isqrt(n), 0, -1):
        body = table[: n + 1 - s * s]
        for r in range(s):
            body[r::s] = accumulate(accumulate(body[r::s]))
        table[2 * s - 1 : 2 * s - 1 + len(body)] = body
    return table


# p(n) by the Hardy-Ramanujan-Rademacher series.  Every real is a ball of
# integers (mid, rad) at a scale of 2**-prec: the true value lies within
# rad / 2**prec of mid / 2**prec.  Each operation below rounds its mid and
# widens its rad by a bound on everything it dropped, so the radius of the
# sum is a proved bound on its rounding error.


def _mul(a, b, prec):
    """The product of balls ``a`` and ``b``."""
    (am, ar), (bm, br) = a, b
    return am * bm >> prec, (abs(am) * br + abs(bm) * ar + ar * br >> prec) + 2


def _div(a, b, prec):
    """The quotient of balls ``a`` and ``b``; ``b`` must not hold 0."""
    (am, ar), (bm, br) = a, b
    if bm <= br:
        raise ArithmeticError("a divisor's ball holds 0")
    return (am << prec) // bm, ((ar * bm + abs(am) * br) << prec) // (bm * (bm - br)) + 2


def _coarser(a, shift):
    """Ball ``a`` at a scale ``shift`` >= 0 bits coarser."""
    return a[0] >> shift, (a[1] >> shift) + 2


def _sqrt(num, den, prec):
    """The ball of sqrt(num / den): isqrt of the floor of num / den * 4**prec
    is at most 2 below the true root at that scale."""
    return isqrt((num << 2 * prec) // den) + 1, 1


def _pi(prec):
    """pi by Chudnovsky's series,

        pi = 426880 sqrt(10005) / sum_j (-1)^j a_j (13591409 + 545140134 j),
        a_j = (6j)! / ((3j)! (j!)^3 640320^(3j)),

    summed 32 bits finer than ``prec``.  a_j / a_(j-1) =
    24 (6j-5)(2j-1)(6j-1) / (j^3 640320^3) < 2**-47, so each floored a_j is
    less than 2 units off, and the terms alternate and shrink: those from
    the first whose a_j floors to 0 on sum to less than twice its linear
    factor.  The sum is off by less than twice the linear factors it took,
    the quotient by less than 2**25 units up to the precision of
    p(2**25 - 1)."""
    fine = prec + 32
    a, total, rad, j = 1 << fine, 13591409 << fine, 0, 0
    while a:
        j += 1
        a = a * ((6 * j - 5) * (2 * j - 1) * (6 * j - 1)) // (j**3 * (640320**3 // 24))
        linear = 13591409 + 545140134 * j
        total, rad = total - linear * a if j & 1 else total + linear * a, rad + 2 * linear
    root = _sqrt(10005, 1, fine)
    return _coarser(_div((426880 * root[0], 426880 * root[1]), (total, rad), fine), 32)


def _exp(a, prec, roots=0):
    """The balls of e**a, e**(a/2), ..., e**(a / 2**roots), for a ball
    ``a`` >= 0: halve a below 2**-EXP_REDUCE, and at least ``roots`` times,
    sum the Taylor series, and square back, each square the ball of twice
    the exponent of the one before it.  Each computed term is short of the
    true one by less than 2 units and the terms left out sum to less than
    4, so i terms lose less than 2i + 4.  A term is shifted down before it
    is divided by the small i: faster than one division by i << prec, and
    rounded the same, as floor(floor(t) / i) = floor(t / i).  The error
    delta of the halved argument scales the result by at most
    e**delta - 1 <= 2 delta."""
    m, r = a
    halvings = max(roots, m.bit_length() - prec + EXP_REDUCE)
    y = m >> halvings
    delta = (r >> halvings) + 2
    if delta > 1 << prec:
        raise ArithmeticError("the argument of exp is too imprecise")
    term = total = 1 << prec
    i = 0
    while term:
        i += 1
        term = (term * y >> prec) // i
        total += term
    m, r = total + i + 2, i + 2
    r += (2 * (m + r) * delta >> prec) + 1
    powers = []
    for i in range(halvings, 0, -1):  # from e**(a / 2**i) to e**(a / 2**(i-1))
        if i <= roots:
            powers.append((m, r))
        m, r = m * m >> prec, ((2 * m + r) * r >> prec) + 2
    return [(m, r)] + powers[::-1]


def _cos(num, den, pi_ball, prec):
    """cos(pi * num / den), the angle folded into [0, pi/4] by symmetry
    (as a sine past pi/4).  The Taylor terms alternate and shrink; each,
    shifted before it is divided as in ``_exp``, is off by less than 2
    units and the first left out is below 2, and cos is 1-Lipschitz in the
    angle's own error."""
    num %= 2 * den
    num = min(num, 2 * den - num)
    sign = 1
    if 2 * num > den:
        num, sign = den - num, -1
    odd = 4 * num > den
    if odd:  # cos t = sin(pi/2 - t)
        num, den = den - 2 * num, 2 * den
    y = pi_ball[0] * num // den
    y2 = y * y >> prec
    term = total = y if odd else 1 << prec
    i = odd
    while term:
        i += 2
        term = (-term * y2 >> prec) // ((i - 1) * i)
        total += term
    return sign * total, i + 4 + pi_ball[1] * num // den


def _tail(n, terms, pi_ball, prec):
    """An upper bound, at scale ``prec``, on the remainder of the series
    for p(n) after ``terms`` terms, n >= 2 (Rademacher 1937):

        44 pi^2 / (225 sqrt 3) / sqrt(N) + pi sqrt 2 / 75 * sqrt(N / (n-1))
                                            * sinh(pi sqrt(2n/3) / N).
    """
    first = _div(_mul(pi_ball, pi_ball, prec), _sqrt(3 * terms, 1, prec), prec)
    y = _mul(pi_ball, _sqrt(6 * n, 1, prec), prec)
    [e] = _exp((y[0] // (3 * terms), y[1] // (3 * terms) + 2), prec)
    inv = _div((1 << prec, 0), e, prec)
    root = _mul(pi_ball, _sqrt(2 * terms, n - 1, prec), prec)
    second = _mul(root, (e[0] - inv[0], e[1] + inv[1]), prec)  # twice sinh
    return 44 * sum(first) // 225 + sum(second) // 150 + 2


def _terms_for(n, budget):
    """The fewest terms, below 4 isqrt(n) + 1024, whose remainder bound,
    evaluated in floats, is at most ``budget``: only a guess, which
    ``_tail`` then certifies.  The bound falls as the number of terms
    grows."""
    c = pi * sqrt(2 * n / 3)

    def within(terms):
        if c > 700 * terms:  # sinh would overflow, far above any budget
            return False
        first = 44 * pi * pi / (225 * sqrt(3 * terms))
        return first + pi * sqrt(2 * terms / (n - 1)) / 75 * sinh(c / terms) <= budget

    return 1 + bisect_left(range(1, 4 * isqrt(n) + 1024), True, key=within)


def partition_number(n: int) -> int:
    """The partition number p(n), by the Hardy-Ramanujan-Rademacher series

        p(n) = 4 / (24n - 1) * sum_k S_k(n) (cosh x_k - sinh(x_k) / x_k),
        x_k = pi sqrt(24n - 1) / (6k),

    where sqrt(k/3) S_k(n) is the Kloosterman-type sum A_k(n), by Selberg's
    formula the sum of (-1)^l cos(pi (6l+1) / (6k)) over l mod 2k with
    (3l^2 + l)/2 = -n mod k (Rademacher 1937; Johansson, arXiv:1205.5991).

    Term k is computed with the fractional bits its largest part,
    2 |S_k| (1 + 1/x) e^x / (24n - 1), needs, plus 12 guard bits, but no
    more than term 1 gets; balls carry every rounding error.  As
    x_2k = x_k / 2, the terms k, 2k, 4k, ... of one odd part form a chain,
    and one ``_exp`` of x at the chain's least k gives every e^x of it as
    it squares back, with a guard bit for each squaring, since each doubles
    the error.
    Terms are added until Rademacher's remainder bound is at most the first
    of ``TAIL_BUDGETS``, and then the next, until the sum lies within
    1/2 - E of an integer, E the remainder bound plus the rounding error.
    A sum that is still not that close raises ArithmeticError: the result
    is never returned unchecked.  ``_check_row`` prices the call as a
    one-part row of the n + 1 weights, as the table kernels are priced, and
    refuses it past n = 2**25 - 1 before any term is summed.
    """
    check_int(ValueError, 0, "weight", n)
    if n < 2:
        return 1  # the remainder bound needs n >= 2
    _check_row(n + 1, 1)
    d = 24 * n - 1
    terms = _terms_for(n, TAIL_BUDGETS[0] / 64)
    bits = SERIES_BITS + (4 * terms).bit_length()
    per_bit, lead = 1 / log(2), log2(2 / d)

    def precision(x, count):  # fractional bits for term k at x = x_k
        parts = x * per_bit + log2(count * (1 + 1 / x)) + lead
        return bits + max(0, ceil(parts)) + 12

    size = pi * sqrt(d) / 6  # x_1
    top = precision(size, 2)  # term 1's (l = 0, 1), the most any term gets
    # the most any e^x gets: term 1's and a guard bit for each of _exp's
    # squarings of x_1, as each doubles its error
    fine = top + int(size).bit_length() + EXP_REDUCE
    pi_fine = _pi(fine)
    # the remainder bound at 20 more bits than the sum: _exp's squarings
    # multiply its rounding error
    pi_tail = _coarser(pi_fine, fine - bits - 20)
    mu = _mul(pi_fine, _sqrt(d, 1, fine), fine)
    mu = mu[0] // 6, mu[1] // 6 + 2
    total = error = done = 0
    for budget in TAIL_BUDGETS:
        if done:  # a later budget: the first one's guess was made above
            terms = _terms_for(n, budget / 64)
        budget <<= bits - 6
        while (tail := (_tail(n, terms, pi_tail, bits + 20) >> 20) + 1) > budget:
            terms += 1
        pent = [(3 * l * l + l) // 2 + n for l in range(2 * terms)]  # k | pent[l]
        chains = {}  # the nonzero terms k by odd part: fold, Selberg's l, precision
        for k in range(done + 1, terms + 1):
            # for odd k, l + k solves as l does, with an equal summand
            fold = 1 + k % 2
            ls = [l for l in range(2 * k // fold) if not pent[l] % k]
            if ls:
                p = min(precision(size / k, fold * len(ls)), top)
                chains.setdefault(k // (k & -k), []).append((k, fold, ls, p))
        for chain in chains.values():
            # one _exp of x at the chain's least k, at that term's precision
            # and a guard bit for each squaring back, which the terms up the
            # chain read: e^x_2k squared is e^x_k
            low, p = chain[0][0], chain[0][3]
            roots = (chain[-1][0] // low).bit_length() - 1
            halvings = max(roots, int(size / low).bit_length() + EXP_REDUCE)
            prec = min(p + halvings, fine)
            xm, xr = _coarser(mu, fine - prec)
            powers = _exp((xm // low, xr // low + 2), prec, roots)
            for k, fold, ls, p in chain:
                pi_k = _coarser(pi_fine, fine - p)
                sm = sr = 0
                for l in ls:
                    cm, cr = _cos(6 * l + 1, 6 * k, pi_k, p)
                    sm, sr = sm - cm if l & 1 else sm + cm, sr + cr
                sm, sr = fold * sm, fold * sr
                xm, xr = _coarser(mu, fine - p)
                xm, xr = xm // k, xr // k + 2
                # the balls of e^x, e^-x (im) and (e^x - e^-x) / x (qm),
                # with 1 / (b (b - r)) <= 4**(1 - bit length of b - r) for a
                # divisor ball b, r; hm, hr is twice cosh x - sinh(x) / x
                gm, gr = _coarser(powers[(k // low).bit_length() - 1], prec - p)
                if gm <= gr or xm <= xr:
                    raise ArithmeticError("a divisor's ball holds 0")
                im, ir = (1 << 2 * p) // gm, (gr << 2 * p + 2 >> 2 * (gm - gr).bit_length()) + 2
                qm = (gm - im << p) // xm
                qr = (gr + ir) * xm + abs(gm - im) * xr << p + 2
                qr = (qr >> 2 * (xm - xr).bit_length()) + 2
                hm, hr = gm + im - qm, gr + ir + qr
                tm, tr = sm * hm >> p, (abs(sm) * hr + abs(hm) * sr + sr * hr >> p) + 2
                tm, tr = _coarser((2 * tm // d, 2 * tr // d + 2), p - bits)
                total, error = total + tm, error + tr
        done = max(done, terms)
        nearest = total + (1 << bits - 1) >> bits
        if abs(total - (nearest << bits)) + error + tail < 1 << bits - 1:
            return nearest
    raise ArithmeticError(f"the series for p({n}) is not within its error bound of an integer")


def partition_count(n: int) -> int:
    """The partition number p(n): the last entry of the Durfee squares of
    ``partition_table`` up to ``SERIES_CUT``, and the certified series of
    ``partition_number`` past it."""
    check_int(ValueError, 0, "weight", n)  # before n meets SERIES_CUT
    if n > SERIES_CUT:
        return partition_number(n)
    return partition_table(n)[n]
