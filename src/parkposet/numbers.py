"""Exact integer sequences used throughout the package.

Everything here returns plain Python ints computed exactly.  The binomial
coefficient accepts an arbitrary integer upper argument so that product
formulas can be evaluated at negative parameters.
"""

from __future__ import annotations

import math
from functools import lru_cache


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) for any integer a and nonnegative b.

    For a >= 0 this agrees with math.comb.  For negative a it follows the
    falling-factorial convention C(a, b) = a (a-1) ... (a-b+1) / b!, which
    is always an integer.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    num = 1
    for j in range(b):
        num *= a - j
    q, r = divmod(num, math.factorial(b))
    if r:
        raise ArithmeticError(f"binomial({a}, {b}) is not an integer")
    return q


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("catalan expects n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan(n: int, k: int) -> int:
    """Fuss-Catalan number C_n^(k) = binom(kn + 1, n) / (kn + 1).

    Computed through the product form (1/n!) * prod_{j=0}^{n-2} (kn - j),
    which stays meaningful for negative k.  C_n^(2) is the Catalan number
    C_n, and C_n^(1) = 1 for every n >= 1.
    """
    if n < 0:
        raise ValueError("fuss_catalan expects n >= 0")
    if n == 0:
        return 1
    num = 1
    for j in range(n - 1):
        num *= k * n - j
    q, r = divmod(num, math.factorial(n))
    if r:
        raise ArithmeticError(f"fuss_catalan({n}, {k}) is not an integer")
    return q


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        return 0
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def narayana(n: int, k: int) -> int:
    """Narayana number N(n, k) = (1/n) binom(n, k) binom(n, k-1)."""
    if n <= 0 or k <= 0 or k > n:
        return 0
    return math.comb(n, k) * math.comb(n, k - 1) // n


def chain_count(n: int, k: int, length: int) -> int:
    """Number of weak k-chains in the parking poset on [n] whose top
    element has rank `length`.

    Equals length! * binom(kn, length) * S(n, length + 1), which also
    counts k-parking trees on [n] with length + 1 nonempty nodes, and
    the rank-`length` elements of the k-divisible parking poset.
    Summing over all lengths gives (kn + 1)^(n - 1).  At k = 1 these
    are the rank sizes of the parking poset itself, and at k = -1 the
    formula returns the signed Whitney numbers of the first kind,
    matching `whitney_first_kind`.
    """
    return (
        math.factorial(length)
        * binomial(k * n, length)
        * stirling2(n, length + 1)
    )


def whitney_first_kind(n: int, length: int) -> int:
    """Whitney number of the first kind for the 2-partition poset.

    w_length = (-1)^length * length! * binom(n + length - 1, length)
    * S(n, length + 1).
    """
    return (
        (-1) ** length
        * math.factorial(length)
        * binomial(n + length - 1, length)
        * stirling2(n, length + 1)
    )


def parking_count(n: int, k: int = 1) -> int:
    """(kn + 1)^(n - 1) for n >= 1: the k-parking functions on [n], the
    elements of the k-divisible parking poset, and the sum of
    `chain_count(n, k, l)` over all lengths l."""
    return (k * n + 1) ** (n - 1)


def prime_parking_count(n: int, k: int = 1) -> int:
    """(kn - 1)^(n - 1) for n >= 2: the prime k-parking functions on [n],
    the absolute Mobius value of the k-divisible parking poset, and the
    rank of the top reduced homology of its proper part."""
    return (k * n - 1) ** (n - 1)
