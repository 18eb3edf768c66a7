"""Exact truncated power series for chain enumeration.

Series live in Q[t][[x]], truncated in x: x marks the underlying set
size (exponentially) and t marks the rank of the top element of a
chain.  The series of weak k-chains in the parking poset satisfies the
fixed point equation

    C = exp(x (t C + 1)^k) - 1

and is the compositional inverse of ln(1 + x) (1 + t x)^(-k).  Both
facts are implemented here and cross-checked against the closed count
in ``numbers.chain_count`` by the tests.

All coefficients are fractions.Fraction, so every identity checked is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .numbers import binomial

Key = tuple[int, int]


class TruncatedSeries:
    """A series sum c[i, j] x^i t^j with i at most ``order``.

    Powers of t are never truncated; they stay bounded by the x degree
    in every series arising here.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[Key, Fraction] | None = None):
        self.order = order
        self.coeffs: dict[Key, Fraction] = {}
        if coeffs:
            for (i, j), value in coeffs.items():
                value = Fraction(value)
                if i <= order and value:
                    self.coeffs[(i, j)] = value

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def constant(cls, order: int, value) -> "TruncatedSeries":
        return cls(order, {(0, 0): Fraction(value)})

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls(order, {(1, 0): Fraction(1)})

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls(order, {(0, 1): Fraction(1)})

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def labelled_count(self, i: int, j: int) -> int:
        """i! times the coefficient of x^i t^j, which must be an integer:
        the count on [i] that an exponential series in x gives."""
        value = self.coeff(i, j) * factorial(i)
        if value.denominator != 1:
            raise RuntimeError("chain series coefficient is not an integer")
        return int(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = ", ".join(
            f"x^{i} t^{j}: {value}" for (i, j), value in sorted(self.coeffs.items())
        )
        return f"TruncatedSeries(order={self.order}, {{{terms}}})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return TruncatedSeries(self.order, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) - value
        return TruncatedSeries(self.order, out)

    def scale(self, value) -> "TruncatedSeries":
        value = Fraction(value)
        return TruncatedSeries(
            self.order, {key: v * value for key, v in self.coeffs.items()}
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out: dict[Key, Fraction] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i = i1 + i2
                if i > self.order:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return TruncatedSeries(self.order, out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers are built termwise instead")
        result = TruncatedSeries.constant(self.order, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        if self.coeff(0, 0):
            raise ValueError("exp needs a zero constant term")
        result = TruncatedSeries.constant(self.order, 1)
        power = TruncatedSeries.constant(self.order, 1)
        for m in range(1, self.order + 1):
            power = power * self
            if not power.coeffs:
                break
            result = result + power.scale(Fraction(1, factorial(m)))
        return result

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (with zero constant term) for x.

        The variable t is left alone; it is a formal weight, not a
        second function argument.
        """
        if inner.coeff(0, 0):
            raise ValueError("composition needs a zero constant term inside")
        slices: dict[int, TruncatedSeries] = {}
        for (i, j), value in self.coeffs.items():
            piece = slices.setdefault(i, TruncatedSeries(self.order))
            piece.coeffs[(0, j)] = value
        result = TruncatedSeries(self.order)
        for i in range(self.order, -1, -1):
            result = result * inner
            if i in slices:
                result = result + slices[i]
        return result


def log1p_series(order: int) -> TruncatedSeries:
    """The series ln(1 + x) up to the given order."""
    return TruncatedSeries(
        order,
        {(m, 0): Fraction((-1) ** (m + 1), m) for m in range(1, order + 1)},
    )


def geometric_power_series(k: int, order: int) -> TruncatedSeries:
    """The series (1 + t x)^(-k) up to the given order in x."""
    return TruncatedSeries(
        order, {(m, m): Fraction(binomial(-k, m)) for m in range(order + 1)}
    )


def chain_series(k: int, order: int) -> TruncatedSeries:
    """Generating series of weak k-chains in the parking posets.

    The coefficient of x^n t^l, times n!, is the number of weak chains
    a_1 <= ... <= a_k in the parking poset on [n] whose top element has
    rank l.  Computed by iterating the fixed point equation
    C = exp(x (t C + 1)^k) - 1, which gains one x-order per round.
    """
    if k < 1:
        raise ValueError("chain length must be at least 1")
    one = TruncatedSeries.constant(order, 1)
    t = TruncatedSeries.t(order)
    x = TruncatedSeries.x(order)
    current = TruncatedSeries.zero(order)
    for _ in range(order + 1):
        following = (x * (t * current + one) ** k).exp() - one
        if following == current:
            break
        current = following
    return current


def chain_inverse_series(k: int, order: int) -> TruncatedSeries:
    """The compositional inverse of the weak k-chain series,
    ln(1 + x) (1 + t x)^(-k)."""
    return log1p_series(order) * geometric_power_series(k, order)


def series_chain_count(n: int, k: int, length: int) -> int:
    """Number of weak k-chains on [n] with top rank ``length``, read off
    the generating series."""
    return chain_series(k, n).labelled_count(n, length)
