"""Independent cross-check recurrences.

Deliberately separate from the dynamic-programming kernels so that a bug
in either implementation cannot hide: these share no code with
``_kernels_py`` / ``_kernels_c`` and use a different recurrence entirely.
"""


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
    0 <= k <= n <= max_n, indexed [n][k], by the q-Pascal rule

        [n, k] = [n-1, k-1] + q^k [n-1, k],   [n, 0] = [n, n] = 1

    (count the words of k ones and n-k zeros by their pairs of a one before
    a zero: a word ends in a one, which adds no pair, or in a zero, which
    adds one pair with each of its k ones).  Additions only: no product
    formula and no division, unlike ``gaussian_binomial`` and the box
    kernels.
    """
    _check_limit("max_n", max_n)
    rows = [[(1,)]]
    for n in range(1, max_n + 1):
        above = rows[-1]
        row = [(1,)]
        for k in range(1, n):
            coeffs = list(above[k - 1]) + [0] * (n - k)
            for i, c in enumerate(above[k], k):
                coeffs[i] += c
            row.append(tuple(coeffs))
        row.append((1,))
        rows.append(row)
    return rows
