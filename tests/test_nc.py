"""Noncrossing partitions, permutations, and their encodings."""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkposet.nc import (
    NoncrossingPartition,
    Permutation,
    SetPartition,
    _blocks_cross,
    embed_permutation,
    enumerate_all_partitions,
    enumerate_noncrossing,
    is_interval_partition,
    is_noncrossing,
    kreweras,
    kreweras_inverse,
    lukasiewicz_decode,
    lukasiewicz_encode,
    nc_leq,
    noncrossing_closure,
    partition_from_permutation,
    permutation_code,
    relative_kreweras,
    zero_prefix_length,
)
from parkposet.numbers import catalan


@lru_cache(maxsize=None)
def nc_list(n):
    return tuple(enumerate_noncrossing(n))


@st.composite
def noncrossing(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    items = nc_list(n)
    return items[draw(st.integers(0, len(items) - 1))]


@st.composite
def permutations(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return Permutation(draw(st.permutations(range(1, n + 1))))


# ----- set partitions -----


def test_canonical_form():
    p = SetPartition(5, [[3], [5, 4], [2, 1]])
    assert p.blocks == ((1, 2), (3,), (4, 5))
    assert p.block_of(4) == (4, 5)
    assert p.block_index_of(3) == 1
    assert len(p) == 3


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [3, 4]])


def test_refines():
    fine = SetPartition(4, [[1], [2], [3, 4]])
    coarse = SetPartition(4, [[1, 2], [3, 4]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert nc_leq(coarse, fine)
    top = SetPartition.top(4)
    bottom = SetPartition.bottom(4)
    assert nc_leq(bottom, coarse) and nc_leq(coarse, top)


def _crossing_oracle(p):
    """Literal alternation check: two blocks cross when they interleave."""
    for b1, b2 in combinations(p.blocks, 2):
        for i, k in combinations(b1, 2):
            for j, l in combinations(b2, 2):
                if i < j < k < l or j < i < l < k:
                    return True
    return False


@pytest.mark.parametrize("n", range(1, 7))
def test_noncrossing_matches_alternation_oracle(n):
    for p in enumerate_all_partitions(n):
        assert is_noncrossing(p) == (not _crossing_oracle(p))


def _pairwise_noncrossing(blocks):
    """The pairwise route: no two canonical blocks cross."""
    return not any(_blocks_cross(b1, b2) for b1, b2 in combinations(blocks, 2))


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        )
    )
)
def test_stack_scan_accepts_exactly_the_pairwise_oracle(drawn):
    n, owners = drawn
    groups = {}
    for x, b in enumerate(owners, start=1):
        groups.setdefault(b, []).append(x)
    # Blocks in decreasing order, each decreasing: the reverse of canonical.
    blocks = [group[::-1] for group in reversed(groups.values())]
    p = SetPartition(n, blocks)
    expected = _pairwise_noncrossing(p.blocks)
    assert is_noncrossing(p) == expected
    if expected:
        assert NoncrossingPartition(n, blocks) == p
    else:
        with pytest.raises(ValueError, match="crossing"):
            NoncrossingPartition(n, blocks)


@pytest.mark.parametrize("n", range(0, 9))
def test_enumeration_count_is_catalan(n):
    assert sum(1 for _ in enumerate_noncrossing(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_filter_oracle(n):
    by_filter = {p for p in enumerate_all_partitions(n) if is_noncrossing(p)}
    assert set(nc_list(n)) == by_filter


@pytest.mark.parametrize("n", range(1, 7))
def test_noncrossing_closure_is_finest_coarsening(n):
    for p in enumerate_all_partitions(n):
        closure = noncrossing_closure(n, p.blocks)
        coarser = [q for q in nc_list(n) if p.refines(q)]
        finest = max(coarser, key=len)
        assert all(finest.refines(q) for q in coarser)
        assert closure == finest
        if is_noncrossing(p):
            assert closure.blocks == p.blocks


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_noncrossing(13))


# ----- Lukasiewicz encoding -----


def test_lukasiewicz_fifteen_points():
    word = (3, 0, 4, 2, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0)
    p = lukasiewicz_decode(word)
    assert p.blocks == (
        (1, 2, 15),
        (3, 6, 10, 11),
        (4, 5),
        (7, 8, 9),
        (12, 13, 14),
    )
    assert lukasiewicz_encode(p) == word


@given(noncrossing())
def test_lukasiewicz_roundtrip(p):
    assert lukasiewicz_decode(lukasiewicz_encode(p)) == p


def test_lukasiewicz_rejects_malformed():
    with pytest.raises(ValueError):
        lukasiewicz_decode((0, 2, 0))
    with pytest.raises(ValueError):
        lukasiewicz_decode((1, 0, 1))
    with pytest.raises(ValueError):
        lukasiewicz_decode((2, 2, 0))
    with pytest.raises(ValueError):
        lukasiewicz_decode((1, -1, 1))


def test_partial_sums_stay_ahead():
    for p in nc_list(6):
        word = lukasiewicz_encode(p)
        total = 0
        for j, a in enumerate(word, start=1):
            total += a
            assert total >= j


# ----- permutations -----


def test_compose_right_to_left():
    s = Permutation((2, 1, 3))
    t = Permutation((2, 3, 1))
    assert (s * t).word == (1, 3, 2)
    assert (t * s).word == (3, 2, 1)


def test_inverse_and_cycles():
    p = Permutation((3, 1, 2, 5, 4))
    assert (p * p.inverse()).word == (1, 2, 3, 4, 5)
    assert p.cycles() == ((1, 3, 2), (4, 5))
    assert p.cycle_type() == (3, 2)
    assert Permutation.from_cycles(5, p.cycles()) == p


@given(permutations())
def test_cycles_roundtrip(p):
    assert Permutation.from_cycles(p.n, p.cycles()) == p
    assert (p * p.inverse()) == Permutation.identity(p.n)


# ----- partition embedding and Kreweras complement -----


def test_embed_blocks_become_increasing_cycles():
    p = NoncrossingPartition(6, [[1, 2], [3], [4, 5, 6]])
    perm = embed_permutation(p)
    assert perm.word == (2, 1, 3, 5, 6, 4)
    assert partition_from_permutation(perm) == p


def test_partition_from_permutation_rejects_non_embeddings():
    with pytest.raises(ValueError):
        partition_from_permutation(Permutation((3, 1, 2)))
    crossing = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        partition_from_permutation(crossing)


def test_kreweras_worked_example():
    p = NoncrossingPartition(6, [[1, 2], [3], [4, 5, 6]])
    assert kreweras(p).blocks == ((1, 3, 4), (2,), (5,), (6,))


def test_kreweras_extremes():
    n = 5
    assert kreweras(SetPartition.bottom(n)) == SetPartition.top(n)
    assert kreweras(SetPartition.top(n)) == SetPartition.bottom(n)


@given(noncrossing())
def test_kreweras_inverse_roundtrip(p):
    assert kreweras_inverse(kreweras(p)) == p
    assert kreweras(kreweras_inverse(p)) == p


@given(noncrossing())
def test_kreweras_squared_rotates(p):
    n = p.n
    rotated = SetPartition(n, [[x % n + 1 for x in b] for b in p.blocks])
    assert kreweras(kreweras(p)) == rotated


@given(noncrossing())
def test_kreweras_complements_rank(p):
    assert len(kreweras(p)) == p.n + 1 - len(p)


def test_kreweras_order_reversing():
    for p in nc_list(4):
        for q in nc_list(4):
            assert nc_leq(p, q) == nc_leq(kreweras(q), kreweras(p))


def test_relative_kreweras_extremes():
    for p in nc_list(4):
        assert relative_kreweras(p, SetPartition.top(4)) == p
        assert relative_kreweras(SetPartition.bottom(4), p) == kreweras(p)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relative_kreweras_realizable_with_rank(n):
    for p in nc_list(n):
        for t in nc_list(n):
            if not nc_leq(p, t):
                continue
            rel = relative_kreweras(p, t)
            assert len(rel) == n - len(t) + len(p)


def test_relative_kreweras_requires_comparability():
    p = NoncrossingPartition(3, [[1, 2], [3]])
    t = NoncrossingPartition(3, [[1], [2, 3]])
    with pytest.raises(ValueError):
        relative_kreweras(p, t)


# ----- permutation codes -----


def test_code_worked_examples():
    assert permutation_code(Permutation((1, 5, 3, 2, 4))) == (3, 0, 1, 0, 0)
    assert permutation_code(Permutation((4, 3, 2, 1))) == (3, 2, 1, 0)
    assert permutation_code(Permutation.identity(4)) == (0, 0, 0, 0)


def test_code_injective_on_s5():
    from itertools import permutations as iperm

    codes = {permutation_code(Permutation(w)) for w in iperm(range(1, 6))}
    assert len(codes) == 120


@given(permutations(max_n=6))
def test_zero_prefix_counts_fixed_suffix(p):
    code = permutation_code(p)
    k = zero_prefix_length(code)
    n = p.n
    assert all(p(i) == i for i in range(n - k + 1, n + 1))
    if k < n:
        assert p(n - k) != n - k


def test_interval_partition_predicate():
    assert is_interval_partition(SetPartition(4, [[1, 2], [3], [4]]))
    assert not is_interval_partition(SetPartition(4, [[1, 3], [2], [4]]))
