"""Mod-2 Betti numbers of real Grassmann manifolds.

For the Grassmannian of k-planes in R^n, the degree-c cell structure gives
one generator per partition of c into at most k parts each at most n-k, so
the Betti number in degree c is exactly that box-partition count and the
full table is symmetric of total dimension k(n-k).

``gaussian_binomial`` recomputes the same table from the product formula
for [n choose k]_q by exact polynomial division.  It shares no code with
the counting kernels, but their box counts rest on the same formula, so the
sweeps check those counts on other recurrences: ``grassmannian-tables``
against ``oracles.gaussian_triangle`` (the q-Pascal rule, additions only),
``oracle`` against explicit enumeration and ``eq5``, whose any-parts form
compares ``count_box`` with the 2-D set-exact table.
"""

from charrank import _dispatch
from charrank._record import Frozen
from charrank.errors import InvalidDimensions, check_int


def _check_dims(n, k, least=1):
    check_int(InvalidDimensions, least, "ambient dimension", n)
    check_int(InvalidDimensions, 0, "plane dimension", k)
    if k > n:
        raise InvalidDimensions(f"plane dimension must satisfy 0 <= k <= {n}, got {k!r}")


class PoincareTable(Frozen):
    """Betti numbers of one Grassmannian, indexed by degree 0..k(n-k)."""

    __match_args__ = ("n", "k", "betti")

    def __init__(self, n, k, betti):
        self._assign(n, k, betti)

    @property
    def dim(self):
        """Dimension of the manifold; also the top degree of the table."""
        return self.k * (self.n - self.k)


def betti(n, k, degree):
    """The mod-2 Betti number of the k-planes-in-R^n Grassmannian in the
    given degree (0 beyond the manifold dimension)."""
    _check_dims(n, k)
    check_int(ValueError, 0, "degree", degree)
    return _dispatch.box_count(n - k, k, degree)


def poincare(n, k):
    """The full Betti table of the k-planes-in-R^n Grassmannian."""
    _check_dims(n, k)
    return PoincareTable(n=n, k=k, betti=tuple(_dispatch.box_table(n - k, k)))


def _shift_difference(coeffs, gap):
    """Coefficients of (1 - q**gap) * f for f given by ``coeffs``."""
    out = list(coeffs) + [0] * gap
    for i in range(len(coeffs)):
        out[i + gap] -= coeffs[i]
    return out


def _shift_quotient(coeffs, gap):
    """Coefficients of f / (1 - q**gap), verifying the division is exact."""
    deg = len(coeffs) - 1
    quot = [0] * (deg - gap + 1)
    for i in range(len(quot)):
        quot[i] = coeffs[i] + (quot[i - gap] if i >= gap else 0)
    if _shift_difference(quot, gap) != list(coeffs):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


def gaussian_binomial(n, k):
    """Coefficient tuple of the q-binomial coefficient [n choose k]_q,
    computed by the product formula

        prod_{i=1..k} (1 - q**(n-k+i)) / (1 - q**i)

    with exact integer polynomials, asserting each division is exact.
    Independent of the partition kernels by design.  Unlike ``betti`` and
    ``poincare`` it takes n = 0: [0 choose 0]_q = 1, the one partition of
    the empty box.
    """
    _check_dims(n, k, least=0)
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _shift_difference(coeffs, n - k + i)
        coeffs = _shift_quotient(coeffs, i)
    return tuple(coeffs)
