"""Pure-Python counting kernels.

These are the reference implementations of the dynamic-programming cores.
A compiled twin (``_kernels_c``) provides the same six entry points; the
active backend is chosen in ``_dispatch``.  Everything here works with
native Python integers, so results are exact at any size.

Two dynamic programs serve the six entry points:

* ``_part_rows``, the 2-D table indexed by (parts used, weight), serves
  only ``set_exact_counts``.  It is updated one row per slice statement
  instead of one cell per interpreter step, and each slice covers only the
  weights that row can reach: with parts added in ascending order, p parts
  weigh at least p times the least part and at most p times the newest.
  ``set_exact_counts`` refuses (``TableTooLarge``) a table past
  ``MAX_TABLE_CELLS`` entries before it builds one; the compiled twin,
  whose tables stop at 417 x 417, hands it every larger call.
* ``_accumulate``, the 1-D table indexed by weight, adds parts with no
  bound on their number.  It serves ``set_any_table``, each Durfee square
  of ``partition_table``, every box (``_box_row``) and each step of the
  chained box sum ``box_sum``.  It runs one slice statement per residue
  class, or a scalar loop when the classes are short (``CLASS_CUT``); a
  run of equal parts chains its prefix sums inside that one statement.
  ``box_count``, ``box_sum`` and ``set_any_table`` refuse
  (``TableTooLarge``) a call whose row entries times parts passes
  ``MAX_TABLE_CELLS`` before they build the row; ``partition_table`` has
  no such guard.

``partition_table`` sums Euler's 1/(q;q)_inf by Durfee squares,
sum_s q^(s^2) / (q;q)_s^2 (Andrews, *The Theory of Partitions*, ch. 2):
a partition whose largest square has side s is that square, a partition
into at most s parts right of it and one into parts at most s below it.
Each square divides by (1 - q^s)^2 as one run of two parts s on
``_accumulate``, which slices each long enough residue class mod s once,
sums it twice and writes it back once: about (4/3) n^1.5 additions in all
instead of n^2 / 2.
It shares no step with Euler's pentagonal-number recurrence, which
therefore stays in ``oracles`` as the independent cross-check.

Every path adds and subtracts native integers along an exact recurrence,
and conjugation and clamping are identities of partition counts, so the
results equal those of the plain cell-by-cell loops at any size.  All
functions are pure: each call builds its own tables and no module state is
ever mutated, so concurrent use from multiple threads is safe by
construction.
"""

from bisect import bisect_right
from itertools import accumulate
from math import isqrt
from operator import add, sub

from charrank.errors import TableTooLarge

BACKEND = "python"

#: Most entries a 2-D set-exact table or a box table may hold (2**25,
#: 256 MiB at 8 bytes an entry); ``set_exact_counts`` and ``box_table``
#: refuse a larger one with TableTooLarge.  The 1-D loops of ``box_count``,
#: ``box_sum`` and ``set_any_table`` refuse a call whose row entries times
#: parts passes it (``_check_row``).
MAX_TABLE_CELLS = 2**25

# Shortest residue class that ``_accumulate`` runs as one slice statement
# for a single part; a run of k equal parts takes it from CLASS_CUT / k on.
# Measured on CPython 3.11 (x86-64) by replaying the calls of ``charrank
# verify all``: this cut is about even with a scalar loop for every part,
# while the constant-free cut ``v * v <= len(dp)`` costs about 40 % more.
# For a run of two, one chained slice against two scalar passes broke even
# between classes of 8 and 12 weights.
CLASS_CUT = 16


def _part_rows(parts, rows: int, width: int) -> list:
    """Rows 0..rows of the counts of partitions into exactly p parts from
    ``parts``, indexed [p][weight] for weights below ``width``.  ``parts``
    must be an ascending sequence of positive integers.

    Adding part v splits on whether v occurs:

        f(v, p, w) = f(v-1, p, w) + f(v, p-1, w-v)

    Rows are taken with p ascending, so the row below already holds
    f(v, p-1, .) when row p reads it.  Once every part up to v is in, row
    p is zero outside [p * least, p * v], so the pass for v changes row p
    only on [v + (p-1) * least, p * v] and stops at the first row whose
    window starts at ``width`` or past it.  Each window is one slice
    statement; slices stop at ``width`` on their own, so ``hi`` needs no
    clamp.
    """
    table = [[0] * width for _ in range(rows + 1)]
    table[0][0] = 1
    for v in parts:
        if v >= width:
            break
        lo, hi = v, v + 1  # row 1's window, end exclusive
        for below, row in zip(table, table[1:]):
            if lo >= width:
                break
            row[lo:hi] = map(add, row[lo:hi], below[lo - v : hi - v])
            lo, hi = lo + parts[0], hi + v
    return table


def _accumulate(dp: list, parts, times: int = 1) -> list:
    """Add parts ``parts`` with unlimited multiplicity and no bound on their
    number to the counts ``dp`` (indexed by weight), in place, each of them
    ``times`` >= 1 times: divide by (1 - q^v)^times for every v in ``parts``.

    Each part v runs ``dp[w] += dp[w - v]`` over w ascending, so dp[w - v]
    already counts the partitions using v: a prefix sum along each residue
    class mod v.  When the classes are long enough, each class is one slice
    statement that chains the ``times`` ``accumulate`` passes, so a run of
    equal parts reads and writes each class once.  A class of
    ``CLASS_CUT`` / ``times`` weights pays for that statement, as the
    ``times`` passes share it; below that the scalar loop runs the weights
    one by one, one part of the run at a time.
    """
    size = len(dp)
    prefix = accumulate
    if times > 1:  # most calls add each part once: spare them the range
        for _ in range(times - 1):
            prefix = lambda column, inner=prefix: accumulate(inner(column))
    for v in parts:
        if CLASS_CUT * v <= size * times:
            for r in range(v):
                dp[r::v] = prefix(dp[r::v])
        elif times > 1:
            _accumulate(dp, (v,) * times)  # short classes: the scalar loop below
        else:
            for w in range(v, size):
                dp[w] += dp[w - v]
    return dp


def _check_row(entries: int, parts: int) -> None:
    """Refuse (TableTooLarge) a 1-D call that adds ``parts`` parts to a row
    of ``entries`` weights, before any list is built, once the product
    passes ``MAX_TABLE_CELLS``."""
    if entries * parts > MAX_TABLE_CELLS:
        raise TableTooLarge(
            f"a row of {entries} weights times {parts} parts exceeds the limit of "
            f"{MAX_TABLE_CELLS} cells"
        )


def _box_row(a: int, b: int, width: int) -> list:
    """Counts of partitions in an a-by-b box for weights below ``width``:
    with a <= b, the coefficients of prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i)
    (Andrews, *The Theory of Partitions*, Thm 3.1).  Each numerator factor
    below ``width`` is one slice subtraction; dividing by 1 - q^i adds part i.

    The row is a palindrome: taking each partition's complement in the box
    maps weight w to a*b - w.  So no caller asks for more than its lower
    half: ``box_count`` folds its weight into it and ``box_table`` mirrors it.
    """
    a, b = min(a, b), max(a, b)
    dp = [1] + [0] * (width - 1)
    for g in range(b + 1, min(a + b, width - 1) + 1):
        dp[g:] = map(sub, dp[g:], dp)  # reads dp[:width - g] before writing
    return _accumulate(dp, range(1, a + 1))


def box_count(a: int, b: int, c: int) -> int:
    """Number of partitions of c into at most b parts, each part <= a."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box dimensions and weight must be nonnegative")
    a, b = min(a, c), min(b, c)  # parts are >= 1: bounds beyond c are inert
    if c > a * b:
        return 0
    c = min(c, a * b - c)  # the row is a palindrome
    _check_row(c + 1, min(a, b))
    return _box_row(a, b, c + 1)[c]


def box_table(a: int, b: int) -> list:
    """Partition counts in an a-by-b box, one entry per weight 0..a*b."""
    if a < 0 or b < 0:
        raise ValueError("box dimensions must be nonnegative")
    if a * b >= MAX_TABLE_CELLS:
        raise TableTooLarge(
            f"a table of {a}x{b} box counts exceeds the limit of {MAX_TABLE_CELLS} entries"
        )
    half = _box_row(a, b, a * b // 2 + 1)
    return half + half[: (a * b + 1) // 2][::-1]  # the row is a palindrome


def box_sum(lo: int, hi: int, weight: int) -> int:
    """Partitions of ``weight`` into parts from {lo..hi}, as the paper's sum
    over s of b_(weight - lo*s)(G_s(R^(m + s))), m = hi - lo: the counts of
    weight - lo*s in an m-by-s box.

    One row walks up in s along

        [m+s, s]_q = [m+s-1, s-1]_q * (1 - q^(m+s)) / (1 - q^s)

    (Andrews, *The Theory of Partitions*, ch. 3).  Before step s it is cut
    to the weight - lo*s + 1 entries that term s and the later ones read;
    the numerator factor is one slice subtraction and 1 - q^s adds part s.
    An m-by-s box holds at most m*s, so the terms below
    s = ceil(weight/hi) are zero and only later ones are added.
    """
    if weight < 0 or lo < 1 or hi < lo:
        raise ValueError("box_sum needs 1 <= lo <= hi and a nonnegative weight")
    _check_row(weight + 1, weight // lo)
    first = -(-weight // hi)
    dp = [1] + [0] * weight
    total = dp[-1]  # s = 0: only the empty partition, of weight 0
    for s in range(1, weight // lo + 1):
        del dp[weight - lo * s + 1 :]
        g = hi - lo + s
        dp[g:] = map(sub, dp[g:], dp)  # reads dp[:len(dp) - g] before writing
        _accumulate(dp, (s,))
        if s >= first:
            total += dp[-1]
    return total


def set_exact_counts(parts: tuple, b: int, c: int) -> list:
    """Counts of partitions of c into exactly s parts from ``parts``,
    for every s in 0..b (a list of length b+1).

    ``parts`` must be a strictly ascending tuple of positive integers.
    """
    if b < 0 or c < 0:
        raise ValueError("number of parts and weight must be nonnegative")
    # more than c // least parts outweigh c; with no part only row 0 counts
    smax = min(b, c // parts[0]) if parts else 0
    if (smax + 1) * (c + 1) > MAX_TABLE_CELLS:
        raise TableTooLarge(
            f"a table of {smax + 1}x{c + 1} counts exceeds the limit of "
            f"{MAX_TABLE_CELLS} cells"
        )
    table = _part_rows(parts, smax, c + 1)
    return [row[c] for row in table] + [0] * (b - smax)


def set_any_table(parts: tuple, top: int) -> list:
    """Counts of partitions into any number of parts from ``parts``, for
    every weight 0..top (a list of length top+1): the coefficients of
    prod_{v in parts} 1 / (1 - q^v).

    ``parts`` must be a strictly ascending tuple of positive integers.
    """
    if top < 0:
        raise ValueError("weight must be nonnegative")
    _check_row(top + 1, bisect_right(parts, top))  # larger parts add nothing
    return _accumulate([1] + [0] * top, parts)


def partition_table(n: int) -> list:
    """Unrestricted partition numbers p(0..n), by Durfee squares.

    Horner's rule on sum_s q^(s^2) / (q;q)_s^2 runs s from isqrt(n) down
    to 1 and sets T <- 1 + q^(2s-1) T / (1 - q^s)^2, from T = 1.  The
    squares below s shift T by (s-1)^2 more, so the new T is needed only
    up to weight n - (s-1)^2: its body is the old T up to n - s^2, divided
    by (1 - q^s)^2 on ``_accumulate`` and written from weight 2s-1 on.
    The old T is zero at weights 1..2s, so one list is updated in place.

    Deliberately not the pentagonal-number recurrence: that one lives in
    ``oracles`` and serves as the independent cross-check.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    table = [1] + [0] * n
    for s in range(isqrt(n), 0, -1):
        body = _accumulate(table[: n + 1 - s * s], (s,), 2)
        table[2 * s - 1 : 2 * s - 1 + len(body)] = body
    return table
