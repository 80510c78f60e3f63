"""Exception types shared across the package, and the integer check that
raises them."""


class CharrankError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(CharrankError):
    """An explicit enumeration would exceed the configured size cap."""


class TableTooLarge(CharrankError):
    """A count would need a dynamic-programming table past the size limit."""


class PreconditionViolation(CharrankError):
    """An argument violates a documented precondition."""


class InvalidDimensions(CharrankError):
    """Grassmannian indices out of range (need 0 <= k <= n, and n >= 1 for a
    manifold; the q-binomial oracle also takes n = 0)."""


class NotGapless(CharrankError):
    """The Grassmannian form of the bound needs a gapless degree set."""


class DegreeOutOfRange(CharrankError):
    """The requested cohomology degree is outside the range the bound covers."""


def check_int(error, minimum, name, *values):
    """Raise ``error`` unless every one of ``values`` is an int of at least
    ``minimum``; ``name`` names them in the message.

    Bools are refused although ``bool`` subclasses ``int``.  Collections go
    in one call (``check_int(ValueError, 1, "each part", *parts)``): this
    runs for every Partition built, and one call per element costs more.
    For the same reason an exact ``int`` is settled by ``type(value) is
    int`` alone: the two ``isinstance`` calls it skips made the check of a
    four-part Partition about 40% slower on CPython 3.11.
    """
    for value in values:
        if type(value) is not int and (
            not isinstance(value, int) or isinstance(value, bool)
        ) or value < minimum:
            raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
