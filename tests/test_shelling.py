"""Tests for the chain order on the bounded parking poset, the shelling
condition, and the cover statistics supporting it."""

import math
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkposet import parking_order, shelling
from parkposet.nc import NoncrossingPartition, Permutation
from parkposet.objects import ParkingElement
from parkposet.parking_order import (
    TOP,
    build_nc_poset,
    build_pp_poset,
    build_pp_poset_hat,
    element_from_block_labels,
    upper_covers,
)
from parkposet.shelling import (
    _code_jump,
    _edge_keys,
    check_code_monotone,
    check_equal_code_join,
    check_jump_code_compatible,
    check_minimal_jump_grows,
    check_nc_el_labeling,
    check_same_block_jump_bound,
    check_split_diamond,
    check_zero_prefix_blocks,
    check_zero_prefix_join,
    cover_key,
    cover_precedes,
    element_code,
    element_zero_prefix,
    recursive_atom_ordering_failure,
    sorted_maximal_chains,
    split_block,
    transposition_label,
    verify_fork_lemma,
    verify_nc_fork_lemma,
    verify_shelling,
)

# ----- labels and statistics -----


def test_transposition_label_bottom_covers():
    bottom = NoncrossingPartition(3, [[1, 2, 3]])
    expected = {
        ((1,), (2, 3)): (1, 2),
        ((1, 2), (3,)): (1, 3),
        ((1, 3), (2,)): (2, 3),
    }
    for blocks, label in expected.items():
        upper = NoncrossingPartition(3, [list(b) for b in blocks])
        assert transposition_label(bottom, upper) == label


def test_transposition_label_rejects_non_covers():
    bottom = NoncrossingPartition(3, [[1, 2, 3]])
    top = NoncrossingPartition(3, [[1], [2], [3]])
    with pytest.raises(ValueError):
        transposition_label(bottom, top)
    with pytest.raises(ValueError):
        transposition_label(bottom, bottom)


def test_element_code_example():
    elem = ParkingElement.from_permutation_top(Permutation((1, 5, 3, 2, 4)))
    assert element_code(elem) == (3, 0, 1, 0, 0)
    assert element_zero_prefix(elem) == 0
    assert element_zero_prefix(ParkingElement.bottom(4)) == 4


def test_code_jump_and_split_block():
    bottom = ParkingElement.bottom(3)
    elem = ParkingElement.from_word((2, 1, 2))
    assert split_block(bottom, elem) == frozenset({1, 2, 3})
    low = element_code(bottom)
    assert _code_jump(low, element_code(elem)) == 2
    assert _code_jump(low, element_code(ParkingElement.from_word((1, 2, 2)))) == 0
    with pytest.raises(ValueError):
        split_block(bottom, ParkingElement.from_word((1, 2, 3)))


# ----- the cover order -----


def test_cover_order_of_bottom_three():
    bottom = ParkingElement.bottom(3)
    ordered = sorted(upper_covers(bottom), key=lambda e: cover_key(bottom, e))
    assert [e.word for e in ordered] == [
        (1, 2, 2),
        (1, 1, 3),
        (1, 2, 1),
        (2, 1, 2),
        (2, 1, 1),
        (1, 3, 1),
        (1, 1, 2),
        (3, 1, 1),
        (2, 2, 1),
    ]


def test_cover_keys_injective():
    for n in (3, 4):
        for elem in build_pp_poset(n).elements:
            ups = upper_covers(elem)
            assert len({cover_key(elem, u) for u in ups}) == len(ups)


@given(st.integers(0, 124))
def test_cover_order_total_on_four(idx):
    elem = build_pp_poset(4).elements[idx]
    keys = sorted(cover_key(elem, u) for u in upper_covers(elem))
    assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))


# ----- chains and the shelling condition -----


def test_sorted_chain_extremes():
    poset = build_pp_poset_hat(3)
    chains = sorted_maximal_chains(poset)
    assert len(chains) == 18

    def words(chain):
        return tuple(
            poset.elements[i].word for i in chain if poset.elements[i] is not TOP
        )

    assert words(chains[0]) == ((1, 1, 1), (1, 2, 2), (1, 2, 3))
    assert words(chains[1]) == ((1, 1, 1), (1, 2, 2), (1, 3, 2))
    assert words(chains[-1]) == ((1, 1, 1), (2, 2, 1), (3, 2, 1))


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 18), (4, 384), (5, 15000)])
def test_shelling_verified(n, expected):
    report = verify_shelling(n)
    assert report.ok
    assert report.num_chains == expected
    # chains of the bounded poset split as label choices times chains of
    # the noncrossing lattice
    assert expected == math.factorial(n) * n ** (n - 2)
    assert build_pp_poset_hat(n).count_maximal_chains() == expected


def test_fork_lemma_both_branches():
    rep3 = verify_fork_lemma(3)
    assert rep3.ok
    assert (rep3.checked, rep3.replaced_middle, rep3.raised_top) == (72, 62, 10)
    rep4 = verify_fork_lemma(4)
    assert rep4.ok
    assert rep4.checked == 3798
    assert (rep4.replaced_middle, rep4.raised_top) == (3122, 676)
    rep5 = verify_fork_lemma(5)
    assert rep5.ok
    assert (rep5.checked, rep5.replaced_middle, rep5.raised_top) == (
        137213,
        109794,
        27419,
    )


def test_nc_fork_lemma():
    counts = {3: (3, 3, 0), 4: (54, 48, 6), 5: (534, 447, 87)}
    for n, expected in counts.items():
        rep = verify_nc_fork_lemma(n)
        assert rep.ok
        assert (rep.checked, rep.replaced_middle, rep.raised_top) == expected


# ----- one cover key per cover -----


def reference_chain_order(poset):
    """The chain order by pairwise comparison: at the first position
    where two chains differ, the cover order at the common lower element
    decides."""
    chains = [tuple(poset.index[e] for e in c) for c in poset.maximal_chains()]

    def compare(a, b):
        for pos in range(1, len(a)):
            if a[pos] != b[pos]:
                lower = poset.elements[a[pos - 1]]
                ka = cover_key(lower, poset.elements[a[pos]])
                kb = cover_key(lower, poset.elements[b[pos]])
                return -1 if ka < kb else 1
        return 0

    return sorted(chains, key=cmp_to_key(compare))


@pytest.mark.parametrize("n", [3, 4])
def test_chain_sort_matches_pairwise_comparison(n):
    poset = build_pp_poset_hat(n)
    assert sorted_maximal_chains(poset) == reference_chain_order(poset)


@pytest.fixture
def fresh_parking_keys():
    """Clear the cached parking cover-key tables around a test that counts
    the calls building them."""
    shelling._parking_cover_keys.cache_clear()
    yield
    shelling._parking_cover_keys.cache_clear()


@pytest.mark.parametrize(
    "check,name,n,covers",
    [
        (verify_shelling, "cover_key", 3, 27),
        (verify_fork_lemma, "cover_key", 3, 27),
        (verify_nc_fork_lemma, "transposition_label", 4, 28),
    ],
)
def test_one_key_per_cover(monkeypatch, fresh_parking_keys, check, name, n, covers):
    # covers counts the covers of the poset the check builds, leaving out
    # those into the sentinel top
    original = getattr(shelling, name)
    calls = []

    def counted(lower, upper):
        calls.append((lower, upper))
        return original(lower, upper)

    monkeypatch.setattr(shelling, name, counted)
    assert check(n).ok
    assert len(calls) == len(set(calls)) == covers


# ----- the parking checks run on ids -----

# n = 4 counts of every parking support check, as pinned below
SUPPORT_COUNTS_4 = [
    (check_code_monotone, 604),
    (check_equal_code_join, 734),
    (check_zero_prefix_blocks, 125),
    (check_zero_prefix_join, 1636),
    (check_split_diamond, 48),
    (check_same_block_jump_bound, 3360),
    (check_minimal_jump_grows, 216),
    (check_jump_code_compatible, 2196),
]


def test_checks_join_on_ids(monkeypatch):
    def refuse(*args):
        raise AssertionError("pp_join called")

    assert not hasattr(shelling, "pp_join")
    monkeypatch.setattr(parking_order, "pp_join", refuse)
    rep = verify_fork_lemma(4)
    assert (rep.checked, rep.replaced_middle, rep.raised_top) == (3798, 3122, 676)
    for check, count in SUPPORT_COUNTS_4:
        assert check(4) == count


@pytest.mark.parametrize("check", [check for check, _ in SUPPORT_COUNTS_4])
def test_one_code_per_element(monkeypatch, fresh_parking_keys, check):
    original = shelling.permutation_code
    calls = []

    def counted(perm):
        calls.append(perm)
        return original(perm)

    monkeypatch.setattr(shelling, "permutation_code", counted)
    check(4)
    # one call per element of the poset on [4] (label permutations
    # repeat), plus one per cover where the check reads the cover order
    covers = sum(map(len, build_pp_poset(4).up))
    assert len(calls) == 125 + (covers if check is check_minimal_jump_grows else 0)


@pytest.mark.parametrize("check", [check_split_diamond, check_same_block_jump_bound])
def test_one_split_block_per_cover(monkeypatch, check):
    original = shelling.split_block
    calls = []

    def counted(lower, upper):
        calls.append((lower, upper))
        return original(lower, upper)

    monkeypatch.setattr(shelling, "split_block", counted)
    check(4)
    # 364 covers in the parking poset on [4]
    assert len(calls) == len(set(calls)) == 364


def test_one_parking_key_table_per_n(monkeypatch, fresh_parking_keys):
    original = shelling.cover_key
    calls = []

    def counted(lower, upper):
        calls.append((lower, upper))
        return original(lower, upper)

    monkeypatch.setattr(shelling, "cover_key", counted)
    assert verify_shelling(4).ok
    assert verify_fork_lemma(4).ok
    assert check_minimal_jump_grows(4) == 216
    # 364 covers in the parking poset on [4], keyed once for all three
    assert len(calls) == len(set(calls)) == 364


def test_tied_cover_keys_rejected():
    with pytest.raises(ValueError, match="tied cover keys above element 0"):
        _edge_keys(build_nc_poset(3), lambda lower, upper: 0)


def test_nc_el_property():
    # the number of strictly comparable pairs in the noncrossing lattice
    # is the Fuss-Catalan count binom(3n, n)/(2n + 1) minus the diagonal
    assert check_nc_el_labeling(2) == 1
    assert check_nc_el_labeling(3) == 7
    assert check_nc_el_labeling(4) == 41
    assert check_nc_el_labeling(5) == 231


# ----- supporting properties of the statistics -----


def test_code_monotone():
    # strictly comparable pairs: (2n+1)^(n-1) multichain pairs minus equals
    assert check_code_monotone(3) == 7**2 - 16
    assert check_code_monotone(4) == 9**3 - 125
    assert check_code_monotone(5) == 11**4 - 1296


def test_equal_code_join():
    assert check_equal_code_join(3) == 36
    assert check_equal_code_join(4) == 734
    assert check_equal_code_join(5) == 18500


def test_zero_prefix_matches_blocks():
    assert check_zero_prefix_blocks(3) == 16
    assert check_zero_prefix_blocks(4) == 125
    assert check_zero_prefix_blocks(5) == 1296


def test_zero_prefix_of_join():
    assert check_zero_prefix_join(3) == 51
    assert check_zero_prefix_join(4) == 1636
    assert check_zero_prefix_join(5) == 70445


def test_split_diamond():
    assert check_split_diamond(4) == 48
    assert check_split_diamond(5) == 2100


def test_same_block_jump_bound():
    assert check_same_block_jump_bound(3) == 108
    assert check_same_block_jump_bound(4) == 3360
    assert check_same_block_jump_bound(5) == 81700


def test_minimal_jump_grows():
    assert check_minimal_jump_grows(3) == 6
    assert check_minimal_jump_grows(4) == 216
    assert check_minimal_jump_grows(5) == 5900


def test_jump_code_compatible():
    assert check_jump_code_compatible(3) == 90
    assert check_jump_code_compatible(4) == 2196
    assert check_jump_code_compatible(5) == 49150


# ----- failure of the recursive atom ordering criterion -----


def test_recursive_atom_ordering_witness():
    data = recursive_atom_ordering_failure()
    x, y, y1 = data["x"], data["y"], data["y_prime"]
    z, z1, w = data["z"], data["z_prime"], data["w"]
    assert element_code(y) == (0, 0, 1, 0, 0, 0)
    assert element_code(y1) == (0, 0, 0, 2, 0, 0)
    assert element_code(z) == (0, 0, 2, 0, 0, 0)
    assert element_code(z1) == (0, 0, 3, 0, 0, 0)
    assert w == element_from_block_labels(
        6, [((1, 3, 4, 5, 6), (1, 2, 3, 5, 6)), ((2,), (4,))]
    )
    # the atoms below z are y then w in the order at x, so z covers no
    # atom preceding y; yet z precedes z1, which covers the earlier atom
    # y1, in the order at y
    assert cover_precedes(x, y1, y)
    assert cover_precedes(x, y, w)
    assert cover_precedes(y, z, z1)
