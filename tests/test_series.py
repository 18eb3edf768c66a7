"""Tests for the exact truncated series and the chain counting results."""

import random
from fractions import Fraction
from math import factorial

import pytest

from parkposet.numbers import (
    chain_count,
    parking_count,
    prime_parking_count,
    whitney_first_kind,
)
from parkposet.objects import count_elements
from parkposet.parking_order import build_pp_poset
from parkposet.series import (
    TruncatedSeries,
    chain_inverse_series,
    chain_series,
    geometric_power_series,
    log1p_series,
    series_chain_count,
)


def test_series_arithmetic():
    x = TruncatedSeries.x(4)
    t = TruncatedSeries.t(4)
    one = TruncatedSeries.constant(4, 1)
    cube = (one + x) ** 3
    assert [cube.coeff(i, 0) for i in range(5)] == [1, 3, 3, 1, 0]
    assert (x * t).coeff(1, 1) == 1
    assert (x * x * x * x * x).coeffs == {}
    with pytest.raises(ValueError):
        (one + x).exp()
    with pytest.raises(ValueError):
        x.compose(one)


def test_exp_inverts_log():
    order = 6
    one = TruncatedSeries.constant(order, 1)
    x = TruncatedSeries.x(order)
    assert log1p_series(order).exp() == one + x


def test_geometric_power():
    series = geometric_power_series(1, 5)
    assert [series.coeff(m, m) for m in range(6)] == [1, -1, 1, -1, 1, -1]
    assert geometric_power_series(2, 3).coeff(2, 2) == 3


def weak_chain_rank_counts(n: int, k: int) -> dict[int, int]:
    """Count weak k-chains grouped by the rank of the top element, by
    dynamic programming over the actual poset."""
    poset = build_pp_poset(n)
    size = len(poset.elements)
    counts = [1] * size
    for _ in range(k - 1):
        counts = [
            sum(counts[i] for i in range(size) if poset.leq_index(i, j))
            for j in range(size)
        ]
    ranks = poset.ranks()
    grouped: dict[int, int] = {r: 0 for r in range(n)}
    for j in range(size):
        grouped[ranks[j]] += counts[j]
    return grouped


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_count_against_poset(n, k):
    grouped = weak_chain_rank_counts(n, k)
    for length in range(n):
        assert grouped[length] == chain_count(n, k, length)
        assert grouped[length] == series_chain_count(n, k, length)


def test_series_matches_closed_formula():
    for k in (1, 2, 3):
        series = chain_series(k, 6)
        for n in range(1, 7):
            for length in range(n):
                value = series.coeff(n, length) * factorial(n)
                assert value == chain_count(n, k, length)


def test_one_series_gives_every_size():
    for k in (1, 2, 3):
        series = chain_series(k, 6)
        for n in range(1, 7):
            for length in range(n):
                assert series.labelled_count(n, length) == series_chain_count(
                    n, k, length
                )
    with pytest.raises(RuntimeError):
        TruncatedSeries(2, {(2, 0): Fraction(1, 3)}).labelled_count(2, 0)


def test_chain_count_row_sums():
    for n in range(1, 8):
        for k in range(1, 5):
            total = sum(chain_count(n, k, length) for length in range(n))
            assert total == parking_count(n, k) == (k * n + 1) ** (n - 1)


def test_parking_counts():
    assert [parking_count(n) for n in range(1, 7)] == [1, 3, 16, 125, 1296, 16807]
    assert [prime_parking_count(n) for n in range(2, 7)] == [1, 4, 27, 256, 3125]
    assert (parking_count(4, 3), prime_parking_count(5, 2)) == (2197, 6561)
    for n in range(2, 7):
        for k in range(1, 4):
            assert prime_parking_count(n, k) == (k * n - 1) ** (n - 1)
    assert count_elements(0) == 1 and type(count_elements(0)) is int


def test_parking_function_numbers():
    series = chain_series(1, 7)
    for n in range(1, 8):
        total = sum(series.coeff(n, j) for j in range(n)) * factorial(n)
        assert total == (n + 1) ** (n - 1)


def test_compositional_inverse():
    order = 6
    x = TruncatedSeries.x(order)
    for k in (1, 2, 3):
        series = chain_series(k, order)
        inverse = chain_inverse_series(k, order)
        assert series.compose(inverse) == x
        assert inverse.compose(series) == x


def test_whitney_first_kind_is_negative_one_point():
    for n in range(1, 8):
        for length in range(n):
            assert chain_count(n, -1, length) == whitney_first_kind(n, length)


# ----- ordinary-coefficient oracle -----
#
# A second route for the arithmetic: series as dicts of ordinary
# Fraction coefficients [x^i t^j], with the plain Cauchy product, exp as
# the sum of g^m / m! and Horner composition.


def _ordinary(series: TruncatedSeries) -> dict:
    return {key: series.coeff(*key) for key in series.coeffs}


def _oracle_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            if i1 + i2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
    return {key: v for key, v in out.items() if v}


def _oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return {key: v for key, v in out.items() if v}


def _oracle_exp(g: dict, order: int) -> dict:
    result = {(0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for m in range(1, order + 1):
        power = {key: v / m for key, v in _oracle_mul(power, g, order).items()}
        result = _oracle_add(result, power)
    return result


def _oracle_compose(f: dict, g: dict, order: int) -> dict:
    result: dict = {}
    for i in range(order, -1, -1):
        result = _oracle_mul(result, g, order)
        result = _oracle_add(result, {(0, j): v for (d, j), v in f.items() if d == i})
    return result


def _random_ordinary(rng, order: int, integral: bool, lowest: int) -> dict:
    coeffs = {}
    for i in range(lowest, order + 1):
        for j in range(3):
            if rng.random() < 0.6:
                den = 1 if integral else rng.randint(1, 4)
                coeffs[(i, j)] = Fraction(rng.randint(-5, 5), den)
    return coeffs


@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("order", range(8))
def test_arithmetic_matches_ordinary_oracle(order, integral):
    rng = random.Random(1000 * order + integral)
    for _ in range(3):
        a = _random_ordinary(rng, order, integral, 0)
        b = _random_ordinary(rng, order, integral, 0)
        g = _random_ordinary(rng, order, integral, 1)
        sa, sb, sg = (TruncatedSeries(order, c) for c in (a, b, g))
        assert _ordinary(sa * sb) == _oracle_mul(a, b, order)
        assert _ordinary(sg.exp()) == _oracle_exp(g, order)
        assert _ordinary(sa.compose(sg)) == _oracle_compose(a, g, order)


def test_chain_series_coefficients_are_ints():
    for k in range(1, 7):
        assert all(type(v) is int for v in chain_series(k, 6).coeffs.values())
        assert all(type(v) is int for v in chain_inverse_series(k, 6).coeffs.values())


@pytest.mark.parametrize("k", range(1, 7))
def test_series_chain_count_matches_closed_formula(k):
    for n in range(1, 10):
        for length in range(n):
            assert series_chain_count(n, k, length) == chain_count(n, k, length)
