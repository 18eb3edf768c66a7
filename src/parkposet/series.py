"""Exact truncated power series for chain enumeration.

Series live in Q[t][[x]], truncated in x: x marks the underlying set
size (exponentially) and t marks the rank of the top element of a
chain.  The series of weak k-chains in the parking poset satisfies the
fixed point equation

    C = exp(x (t C + 1)^k) - 1

and is the compositional inverse of ln(1 + x) (1 + t x)^(-k).  Both
facts are implemented here and cross-checked against the closed count
in ``numbers.chain_count`` by the tests.

Coefficients are stored labelled: c[i, j] = i! [x^i t^j], the count on
[i] that an exponential series gives.  Every series met in chain
counting then has integer coefficients, and products and compositions
stay integer-only.  A product is the binomial convolution

    (a b)[i, j] = sum C(i, i1) a[i1, j1] b[i - i1, j - j1],

and exp and compose use the division-free recurrence on the block of
the least element: with P_0 = 1 and

    P_r[n] = sum_{m=1..n} C(n - 1, m - 1) g[m] P_{r-1}[n - m],

P_r = g^r / r!, exp(g) = sum_r P_r and f(g) = sum_i f[i] P_i (each
g[m], f[i] a polynomial in t).  The constructor takes ordinary
coefficients and normalises each once: it stays an ``int`` when its
labelled value is integral, and is a ``Fraction`` only otherwise; the
same arithmetic serves both.  ``coeff`` returns the ordinary
coefficient as a ``Fraction``, and ``labelled_count`` returns the
labelled one, raising ``RuntimeError`` when it is not an integer.  So
every identity checked is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .numbers import binomial

Key = tuple[int, int]


class TruncatedSeries:
    """A series sum c[i, j] x^i t^j / i! with i at most ``order``.

    Powers of t are never truncated; they stay bounded by the x degree
    in every series arising here.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict | None = None):
        """Build from ordinary coefficients [x^i t^j]."""
        self.order = order
        self.coeffs = {}
        for (i, j), value in (coeffs or {}).items():
            value = Fraction(value) * factorial(i)
            if i <= order and value:
                integral = value.denominator == 1
                self.coeffs[(i, j)] = value.numerator if integral else value

    @classmethod
    def _labelled(cls, order: int, coeffs: dict) -> "TruncatedSeries":
        """Build from labelled coefficients, as the arithmetic gives them."""
        series = cls.__new__(cls)
        series.order = order
        series.coeffs = {key: v for key, v in coeffs.items() if v and key[0] <= order}
        return series

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def constant(cls, order: int, value) -> "TruncatedSeries":
        return cls(order, {(0, 0): value})

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls(order, {(1, 0): 1})

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls(order, {(0, 1): 1})

    def coeff(self, i: int, j: int) -> Fraction:
        """The ordinary coefficient of x^i t^j."""
        return Fraction(self.coeffs.get((i, j), 0), factorial(i))

    def labelled_count(self, i: int, j: int) -> int:
        """i! times the coefficient of x^i t^j, which must be an integer:
        the count on [i] that an exponential series in x gives."""
        value = self.coeffs.get((i, j), 0)
        if value != int(value):
            raise RuntimeError("chain series coefficient is not an integer")
        return int(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = ", ".join(
            f"x^{i} t^{j}: {self.coeff(i, j)}" for i, j in sorted(self.coeffs)
        )
        return f"TruncatedSeries(order={self.order}, {{{terms}}})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) + value
        return TruncatedSeries._labelled(self.order, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) - value
        return TruncatedSeries._labelled(self.order, out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self.order
        out: dict[Key, object] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i = i1 + i2
                if i > order:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, 0) + comb(i, i1) * v1 * v2
        return TruncatedSeries._labelled(order, out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers are built termwise instead")
        result = TruncatedSeries.constant(self.order, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def _block_powers(self, message: str) -> list[dict]:
        """P_r = self^r / r! for r = 0, 1, ... while nonzero, by the block
        of the least element; ``self`` needs no x^0 term."""
        if any(i == 0 for i, _ in self.coeffs):
            raise ValueError(message)
        order = self.order
        by_size: dict[int, list[tuple[int, object]]] = {}
        for (m, j), value in self.coeffs.items():
            by_size.setdefault(m, []).append((j, value))
        powers = [{(0, 0): 1}]
        while powers[-1]:
            out: dict[Key, object] = {}
            for (rest, j0), p in powers[-1].items():
                for m in range(1, order - rest + 1):
                    n = rest + m
                    weight = comb(n - 1, m - 1) * p
                    for j1, g in by_size.get(m, ()):
                        key = (n, j0 + j1)
                        out[key] = out.get(key, 0) + weight * g
            powers.append({key: v for key, v in out.items() if v})
        powers.pop()
        return powers

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        out: dict[Key, object] = {}
        for power in self._block_powers("exp needs a zero constant term"):
            for key, value in power.items():
                out[key] = out.get(key, 0) + value
        return TruncatedSeries._labelled(self.order, out)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (with zero constant term) for x.

        The variable t is left alone; it is a formal weight, not a
        second function argument.
        """
        powers = inner._block_powers("composition needs a zero constant term inside")
        out: dict[Key, object] = {}
        for (i, j0), f in self.coeffs.items():
            if i >= len(powers):
                continue
            for (n, j1), p in powers[i].items():
                key = (n, j0 + j1)
                out[key] = out.get(key, 0) + f * p
        return TruncatedSeries._labelled(self.order, out)


def log1p_series(order: int) -> TruncatedSeries:
    """The series ln(1 + x) up to the given order."""
    return TruncatedSeries._labelled(
        order,
        {(m, 0): (-1) ** (m + 1) * factorial(m - 1) for m in range(1, order + 1)},
    )


def geometric_power_series(k: int, order: int) -> TruncatedSeries:
    """The series (1 + t x)^(-k) up to the given order in x."""
    return TruncatedSeries._labelled(
        order, {(m, m): binomial(-k, m) * factorial(m) for m in range(order + 1)}
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
