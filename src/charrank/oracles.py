"""Independent cross-checks: recurrences and brute force.

Deliberately separate from the dynamic-programming kernels so that a bug
in either implementation cannot hide: these share no code with
``_kernels_py`` / ``_kernels_c`` and use a different recurrence entirely,
or none: ``multiset_weights`` lists every multiset with ``itertools`` and
sums it.
"""

from collections import Counter
from itertools import combinations_with_replacement


def _check_limit(name, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def pentagonal_partition_table(limit):
    """Unrestricted partition numbers p(0..limit) by Euler's
    generalized-pentagonal recurrence:

        p(n) = sum over k >= 1 of (-1)^(k-1) * (p(n - k(3k-1)/2)
                                                + p(n - k(3k+1)/2))

    Pure-Python big integers throughout.
    """
    _check_limit("limit", limit)
    table = [0] * (limit + 1)
    table[0] = 1
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * table[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * table[n - g2]
            k += 1
        table[n] = total
    return table


def gaussian_triangle(max_n):
    """Coefficient tuples of every q-binomial [n choose k]_q with
    0 <= k <= n <= max_n, one row [n choose 0..n]_q at a time for
    n = 0..max_n, by the q-Pascal rule

        [n, k] = [n-1, k-1] + q^k [n-1, k],   [n, 0] = [n, n] = 1

    (count the words of k ones and n-k zeros by their pairs of a one before
    a zero: a word ends in a one, which adds no pair, or in a zero, which
    adds one pair with each of its k ones).  Additions only: no product
    formula and no division, unlike ``gaussian_binomial`` and the box
    kernels.

    ``max_n`` is checked at the call.  The rows are then yielded lazily,
    each built from the one before it alone, so no more than two are held:
    the whole triangle has about max_n**4 / 24 coefficients.
    """
    _check_limit("max_n", max_n)
    return _triangle_rows(max_n)


def _triangle_rows(max_n):
    row = [(1,)]
    yield row
    for n in range(1, max_n + 1):
        above, row = row, [(1,)]
        for k in range(1, n):
            coeffs = list(above[k - 1]) + [0] * (n - k)
            for i, c in enumerate(above[k], k):
                coeffs[i] += c
            row.append(tuple(coeffs))
        row.append((1,))
        yield row


def multiset_weights(values, size, top):
    """How many multisets of ``size`` items from ``values`` (distinct
    nonnegative integers, repetition allowed) sum to each of 0..top, as a
    list of top + 1 counts.

    Brute force: ``itertools.combinations_with_replacement`` lists every
    multiset and each one is summed.  Only what can sum to at most ``top``
    is listed: a value above top never fits, and a multiset of more than
    top items sums past top unless zeros pad it, so with 0 among the
    values ``size`` is cut to top (dropping padding zeros) and without it
    every count is 0.  A partition into at most b parts, each at most a,
    is a multiset of b values from 0..a (its parts padded with zeros); one
    into exactly b parts from a set is a multiset of b of its members.
    """
    _check_limit("size", size)
    _check_limit("top", top)
    values = list(values)
    for value in values:
        _check_limit("each value", value)
    values = [v for v in values if v <= top]
    if 0 in values:
        size = min(size, top)
    elif size > top:
        return [0] * (top + 1)
    counts = Counter(map(sum, combinations_with_replacement(values, size)))
    return [counts[w] for w in range(top + 1)]
