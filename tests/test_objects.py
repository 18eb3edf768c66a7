"""The four faces of a parking element and the maps between them."""

import math
from functools import lru_cache
from itertools import permutations as iperm
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkposet.enumeration import is_prime_parking_word
from parkposet.nc import Permutation
from parkposet.numbers import stirling2
from parkposet.objects import (
    ParkingElement,
    Tree,
    enumerate_elements,
    enumerate_trees,
    is_parking_word,
    tree_from_word,
    validate_tree,
    word_from_tree,
)


@lru_cache(maxsize=None)
def all_elements(n):
    return tuple(enumerate_elements(n))


@st.composite
def elements(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    items = all_elements(n)
    return items[draw(st.integers(0, len(items) - 1))]


# ----- worked examples -----


def test_word_example_eight_points():
    e = ParkingElement.from_word((4, 1, 1, 1, 2, 7, 1, 2))
    assert e.partition.blocks == ((1, 5, 6, 8), (2, 3), (4,), (7,))
    assert e.labels == ((2, 3, 4, 7), (5, 8), (1,), (6,))
    assert e.rho.blocks == ((1,), (2, 3, 4, 7), (5, 8), (6,))
    assert e.word == (4, 1, 1, 1, 2, 7, 1, 2)


def test_twelve_point_example_all_faces():
    word = (11, 1, 9, 9, 3, 2, 7, 9, 1, 1, 1, 2)
    e = ParkingElement.from_word(word)
    assert e.partition.blocks == (
        (1, 5, 6, 8),
        (2, 4),
        (3,),
        (7,),
        (9, 10, 12),
        (11,),
    )
    assert e.sigma.word == (2, 6, 5, 12, 9, 10, 7, 11, 3, 4, 1, 8)
    assert e.labels == ((2, 9, 10, 11), (6, 12), (5,), (7,), (3, 4, 8), (1,))

    leaf = Tree.leaf()
    expected = Tree(
        (2, 9, 10, 11),
        [
            Tree((6, 12), [Tree((5,), [leaf]), leaf]),
            leaf,
            Tree((7,), [leaf]),
            Tree((3, 4, 8), [leaf, Tree((1,), [leaf]), leaf]),
        ],
    )
    assert e.to_tree() == expected
    assert tree_from_word(word) == expected
    assert word_from_tree(expected) == word
    assert ParkingElement.from_tree(expected) == e


def test_arch_decomposition_small_example():
    e = ParkingElement.from_word((1, 3, 2, 5, 2, 7, 1))
    assert e.partition.blocks == ((1, 6), (2, 4), (3,), (5,), (7,))
    assert e.sigma.word == (1, 3, 2, 5, 4, 7, 6)
    leaf = Tree.leaf()
    expected = Tree(
        (1, 7),
        [
            Tree((3, 5), [Tree((2,), [leaf]), Tree((4,), [leaf])]),
            Tree((6,), [leaf]),
        ],
    )
    assert e.to_tree() == expected


# ----- systematic round trips -----


@pytest.mark.parametrize("n", range(1, 5))
def test_all_conversions_roundtrip(n):
    for e in all_elements(n):
        w = e.word
        assert ParkingElement.from_word(w) == e
        t = e.to_tree()
        assert t == tree_from_word(w)
        assert word_from_tree(t) == w
        assert ParkingElement.from_tree(t) == e
        f = e.to_function()
        assert ParkingElement.from_function(f) == e
        pi, rho, labels = e.to_triple()
        assert ParkingElement.from_triple(pi, labels) == e
        assert rho.blocks == tuple(sorted(labels, key=lambda lab: lab[0]))


@given(elements())
def test_roundtrips_sampled(e):
    assert ParkingElement.from_word(e.word) == e
    assert ParkingElement.from_tree(e.to_tree()) == e
    assert ParkingElement.from_function(e.to_function()) == e
    assert e.to_tree() == tree_from_word(e.word)


@pytest.mark.parametrize("n", range(1, 6))
def test_element_count(n):
    assert len(all_elements(n)) == (n + 1) ** (n - 1)
    assert len(set(all_elements(n))) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_words_route_matches_filter(n):
    words = {w for w in product(range(1, n + 1), repeat=n) if is_parking_word(w)}
    assert {e.word for e in all_elements(n)} == words


@pytest.mark.parametrize("n", range(1, 5))
def test_trees_route_matches_direct_generation(n):
    assert {e.to_tree() for e in all_elements(n)} == set(enumerate_trees(n))


def _nilpotent(f):
    n = len(f)
    for start in f:
        x, steps = start, 0
        while x != 0:
            x = f[x - 1]
            steps += 1
            if steps > n:
                return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_functions_route_matches_filter(n):
    nilpotents = {
        f for f in product(range(n + 1), repeat=n) if _nilpotent(f)
    }
    assert {e.to_function() for e in all_elements(n)} == nilpotents
    assert len(nilpotents) == (n + 1) ** (n - 1)


# ----- parking words -----


def test_parking_word_predicate():
    assert is_parking_word((4, 1, 1, 1, 2, 7, 1, 2))
    assert not is_parking_word((2, 2))
    assert not is_parking_word((1, 3, 3))
    assert not is_parking_word((0, 1))
    assert is_parking_word(())


def test_parking_word_k2_count():
    n, k = 3, 2
    words = [
        w for w in product(range(1, k * n + 1), repeat=n) if is_parking_word(w, k)
    ]
    assert len(words) == (k * n + 1) ** (n - 1)


def test_invalid_word_rejected():
    with pytest.raises(ValueError):
        ParkingElement.from_word((2, 2))
    with pytest.raises(ValueError):
        tree_from_word((2, 2))


# ----- trees -----


def test_tree_validation():
    with pytest.raises(ValueError):
        validate_tree(Tree((1,), []))
    with pytest.raises(ValueError):
        validate_tree(Tree((1, 3), [Tree.leaf(), Tree.leaf()]))
    with pytest.raises(ValueError):
        validate_tree(Tree((1,), [Tree((1,), [Tree.leaf()])]))


def test_tree_json_roundtrip():
    t = tree_from_word((1, 3, 2, 5, 2, 7, 1))
    assert Tree.from_json(t.to_json()) == t


def test_preorder_is_left_to_right():
    t = tree_from_word((1, 1, 2))
    assert [node.label for node in t.preorder()] == [(1, 2), (3,), (), ()]


# ----- function view -----


def test_function_view_example():
    e = ParkingElement.from_word((1, 1, 2))
    assert e.to_function() == (0, 0, 1)


# ----- group action -----


def test_act_example():
    e = ParkingElement.from_word((1, 1, 2))
    tau = Permutation((2, 3, 1))
    assert e.act(tau).word == (2, 1, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_act_matches_word_rule(n):
    perms = [Permutation(w) for w in iperm(range(1, n + 1))]
    for e in all_elements(n):
        w = e.word
        for s in perms:
            inv = s.inverse()
            expected = tuple(w[inv(i) - 1] for i in range(1, n + 1))
            assert e.act(s).word == expected


@given(elements(max_n=4))
def test_act_is_an_action(e):
    perms = [Permutation(w) for w in iperm(range(1, e.n + 1))]
    s, t = perms[0], perms[-1]
    assert e.act(t).act(s) == e.act(s * t)
    assert e.act(Permutation.identity(e.n)) == e


@pytest.mark.parametrize("n", [3, 4])
def test_orbits_are_partition_fibers(n):
    perms = [Permutation(w) for w in iperm(range(1, n + 1))]
    by_partition = {}
    for e in all_elements(n):
        by_partition.setdefault(e.partition, set()).add(e)
    for partition, fiber in by_partition.items():
        rep = next(iter(fiber))
        assert {rep.act(s) for s in perms} == fiber


# ----- primes and right combs -----


def test_prime_words_n3():
    primes = {e.word for e in all_elements(3) if e.is_prime()}
    assert primes == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)}


@pytest.mark.parametrize("n", range(1, 6))
def test_prime_count(n):
    count = sum(1 for e in all_elements(n) if e.is_prime())
    assert count == (n - 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_right_comb_count_is_fubini(n):
    count = sum(1 for e in all_elements(n) if e.is_right_comb())
    assert count == sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_prime_and_right_comb_criteria_agree(n):
    # the methods read the partition only; the word and tree criteria
    # are the independent routes
    for e in enumerate_elements(n):
        tree = e.to_tree()
        by_tree = tree.children[-1].is_leaf()
        assert e.is_prime() == is_prime_parking_word(e.word) == by_tree
        assert e.is_right_comb() == all(
            child.is_leaf() for node in tree.preorder() for child in node.children[:-1]
        )


def test_composition_bridge_roundtrip():
    for n in (2, 3, 4):
        for e in all_elements(n):
            if not e.is_right_comb():
                continue
            parts = e.to_composition()
            assert ParkingElement.from_composition(n, parts) == e


def test_composition_example():
    e = ParkingElement.from_word((3, 1, 1))
    assert e.is_right_comb()
    assert e.to_composition() == ((2, 3), (1,))


def test_sort_key_orders_by_rank_then_word():
    es = sorted(all_elements(3), key=lambda e: e.sort_key)
    assert es[0] == ParkingElement.bottom(3)
    assert [e.rank for e in es] == sorted(e.rank for e in es)
