"""Shared exception types, and the integer check every constructor uses."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured resource cap (CLI exit code 3)."""


class MinimalityError(ValueError):
    """A permutation is not the minimal representative of its coset."""


class UnmatchedInequalityError(ValueError):
    """An inequality cannot be written in the test-spectrum form."""


def as_int(x, what: str) -> int:
    """``x`` as an int if it is an integer (an int, a numpy integer, an integral Fraction).

    Anything else, a float or a fractional Fraction included, raises ValueError
    rather than being truncated.
    """
    if type(x) is int:
        return x
    num = getattr(x, "numerator", None)
    if num is not None and getattr(x, "denominator", None) == 1:
        return int(num)
    raise ValueError(f"{what} must be an integer, got {x!r}")
