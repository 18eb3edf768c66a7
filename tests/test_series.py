"""Tests for the exact truncated series and the chain counting results."""

from fractions import Fraction
from math import factorial

import pytest

from parkposet.numbers import chain_count, whitney_first_kind
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
            assert total == (k * n + 1) ** (n - 1)


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
