"""Tests for the word/tree/chain bijections and parking characters."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from parkposet.enumeration import (
    chain_from_ktree,
    enumerate_parking_words,
    is_prime_parking_word,
    ktree_code,
    ktree_from_chain,
    ktree_from_code,
    parking_character,
    prime_parking_character,
    tree_action,
    word_action,
)
from parkposet.nc import Permutation
from parkposet.numbers import chain_count
from parkposet.objects import (
    ParkingElement,
    Tree,
    enumerate_trees,
    is_parking_word,
    tree_from_word,
)
from parkposet.parking_order import build_pp_poset, pp_leq


def all_permutations(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def trees_of(n, k):
    """All k-trees on [n], via direct enumeration when available and via
    parking words otherwise."""
    if k <= 2 and n <= 5:
        return list(enumerate_trees(n, k))
    return [tree_from_word(w, k) for w in enumerate_parking_words(n, k)]


# ---------------------------------------------------------------------------
# parking words
# ---------------------------------------------------------------------------


def test_word_enumeration_small():
    assert list(enumerate_parking_words(1, 1)) == [(1,)]
    assert list(enumerate_parking_words(2, 1)) == [(1, 1), (1, 2), (2, 1)]
    assert list(enumerate_parking_words(2, 2)) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 1),
        (3, 1),
    ]


@pytest.mark.parametrize(
    "n,k",
    [(n, k) for n in range(1, 5) for k in range(1, 4)] + [(5, 1), (5, 2)],
)
def test_word_count(n, k):
    words = list(enumerate_parking_words(n, k))
    assert len(words) == (k * n + 1) ** (n - 1)
    assert len(set(words)) == len(words)


def test_word_action_example():
    perm = Permutation((2, 3, 1))
    # position i of the result holds the letter from position perm^{-1}(i)
    assert word_action(perm, (5, 6, 7)) == (7, 5, 6)


@given(st.integers(0, 719), st.integers(0, 719), st.integers(0, 1295))
def test_word_action_is_group_action(i, j, w):
    perms = all_permutations(6)
    sigma, tau = perms[i], perms[j]
    word = []
    for _ in range(6):
        w, r = divmod(w, 6)
        word.append(r + 1)
    word = tuple(word)
    assert word_action(sigma, word_action(tau, word)) == word_action(
        sigma * tau, word
    )
    assert word_action(Permutation.identity(6), word) == word


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_action_matches_element_action(n):
    perms = all_permutations(n)
    poset = build_pp_poset(n)
    for elem in poset.elements:
        for perm in perms:
            assert elem.act(perm).word == word_action(perm, elem.word)


# ---------------------------------------------------------------------------
# trees <-> chains
# ---------------------------------------------------------------------------


def test_chain_of_single_element_tree():
    tree = Tree((1, 2), [Tree.leaf()] * 4)
    chain = chain_from_ktree(tree, 2)
    assert chain == [ParkingElement.bottom(2)] * 2
    assert ktree_from_chain(chain) == tree


def test_chain_example_by_hand():
    # 2-tree on [3]: root {2}, whose brood holds {1,3} at index 1 and
    # nothing at index 2; the node {1,3} has four leaf children.
    inner = Tree((1, 3), [Tree.leaf()] * 4)
    tree = Tree((2,), [inner, Tree.leaf()])
    chain = chain_from_ktree(tree, 2)
    assert [e.word for e in chain] == [(2, 1, 2), (2, 1, 2)]

    # moving {1,3} to index 2 delays the split: phi_1 is the bottom.
    tree2 = Tree((2,), [Tree.leaf(), inner])
    chain2 = chain_from_ktree(tree2, 2)
    assert chain2[0] == ParkingElement.bottom(3)
    assert chain2[1].word == (2, 1, 2)


def test_stacking_example_by_hand():
    # one brood with both children nonempty: the index-2 child {3} is
    # grafted onto the rightmost leaf of the index-1 child {2} in the top
    # element, while phi_1 merges {3} back into the root, giving the
    # partition 13/2 with label 3 on the root block.
    child1 = Tree((2,), [Tree.leaf(), Tree.leaf()])
    child2 = Tree((3,), [Tree.leaf(), Tree.leaf()])
    tree = Tree((1,), [child1, child2])
    chain = chain_from_ktree(tree, 2)
    assert chain[0].word == (1, 2, 1)
    assert chain[1].word == (1, 2, 3)
    assert chain[1].to_tree() == Tree((1,), [Tree((2,), [Tree((3,), [Tree.leaf()])])])
    assert ktree_from_chain(chain) == tree


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_at_k1_is_the_element(n):
    for tree in enumerate_trees(n, 1):
        assert chain_from_ktree(tree, 1) == [ParkingElement.from_tree(tree)]


@pytest.mark.parametrize(
    "n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
)
def test_chain_round_trip(n, k):
    seen = set()
    for tree in trees_of(n, k):
        chain = chain_from_ktree(tree, k)
        assert len(chain) == k
        for a, b in zip(chain, chain[1:]):
            assert pp_leq(a, b)
        assert chain[-1].rank + 1 == sum(
            1 for node in tree.preorder() if node.label
        )
        assert ktree_from_chain(chain) == tree
        seen.add(tuple(chain))
    assert len(seen) == (k * n + 1) ** (n - 1)


def test_chain_image_is_all_weak_chains():
    poset = build_pp_poset(3)
    index = {e: i for i, e in enumerate(poset.elements)}
    chains = {
        (a, b)
        for a in poset.elements
        for b in poset.elements
        if poset.leq_index(index[a], index[b])
    }
    image = {tuple(chain_from_ktree(t, 2)) for t in enumerate_trees(3, 2)}
    assert image == chains


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_chain_top_rank_distribution(n, k):
    counts = Counter(
        chain_from_ktree(t, k)[-1].rank for t in trees_of(n, k)
    )
    assert counts == {l: chain_count(n, k, l) for l in range(n) if chain_count(n, k, l)}


def test_chain_bijection_is_equivariant():
    perms = all_permutations(3)
    for tree in trees_of(3, 2):
        chain = chain_from_ktree(tree, 2)
        for perm in perms:
            acted = chain_from_ktree(tree_action(perm, tree), 2)
            assert acted == [e.act(perm) for e in chain]


def test_ktree_from_chain_rejects_non_chains():
    poset = build_pp_poset(3)
    tops = [e for e in poset.elements if e.is_maximal()]
    with pytest.raises(ValueError):
        ktree_from_chain([tops[0], ParkingElement.bottom(3)])
    with pytest.raises(ValueError):
        ktree_from_chain([])


# ---------------------------------------------------------------------------
# Prufer-style code
# ---------------------------------------------------------------------------


def test_code_of_single_node():
    tree = Tree((1, 2, 3), [Tree.leaf()] * 3)
    assert ktree_code(tree, 1) == (((1, 2, 3),), (), ())


def test_code_example_by_hand():
    # root {2} with {1,3} hanging at the first half-edge of label 2:
    # one used half-edge (2, 1), one deletion step.
    inner = Tree((1, 3), [Tree.leaf()] * 4)
    tree = Tree((2,), [inner, Tree.leaf()])
    blocks, slots, word = ktree_code(tree, 2)
    assert blocks == ((1, 3), (2,))
    assert slots == ((2, 1),)
    assert word == (1,)
    assert ktree_from_code(3, 2, blocks, slots, word) == tree


@pytest.mark.parametrize(
    "n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (3, 3)]
)
def test_code_round_trip(n, k):
    codes = set()
    for tree in trees_of(n, k):
        code = ktree_code(tree, k)
        assert ktree_from_code(n, k, *code) == tree
        codes.add(code)
    by_edges = Counter(len(slots) for _, slots, _ in codes)
    for l in range(n):
        assert by_edges.get(l, 0) == chain_count(n, k, l)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (3, 2)])
def test_decode_is_a_bijection_from_triples(n, k):
    trees = set()
    total = 0
    pool = [(v, c) for v in range(1, n + 1) for c in range(1, k + 1)]
    for part in set_partitions(list(range(1, n + 1))):
        blocks = tuple(tuple(sorted(b)) for b in part)
        l = len(blocks) - 1
        for slots in itertools.combinations(pool, l):
            for word in itertools.permutations(range(1, l + 1)):
                trees.add(ktree_from_code(n, k, blocks, slots, word))
                total += 1
    assert total == len(trees) == (k * n + 1) ** (n - 1)


def test_decode_validates_input():
    with pytest.raises(ValueError):
        ktree_from_code(3, 1, ((1, 2),), (), ())  # not a partition of [3]
    with pytest.raises(ValueError):
        ktree_from_code(2, 1, ((1,), (2,)), ((1, 2),), (1,))  # copy 2 with k=1
    with pytest.raises(ValueError):
        ktree_from_code(2, 1, ((1,), (2,)), ((1, 1), (2, 1)), (1, 2))  # too many
    with pytest.raises(ValueError):
        ktree_from_code(2, 1, ((1,), (2,)), ((1, 1),), (2,))  # word not a bijection


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,k", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
)
def test_parking_character_counts_fixed_words(n, k):
    words = list(enumerate_parking_words(n, k))
    primes = [w for w in words if is_prime_parking_word(w, k)]
    assert len(primes) == (k * n - 1) ** (n - 1)
    for perm in all_permutations(n):
        fixed = sum(1 for w in words if word_action(perm, w) == w)
        assert fixed == parking_character(n, k, perm)
        fixed_prime = sum(1 for w in primes if word_action(perm, w) == w)
        assert fixed_prime == prime_parking_character(n, k, perm)


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
def test_prime_chain_character(n, k):
    """Chains whose bottom element is prime realize the prime parking
    character, even though the tree bijection does not map prime words
    to prime chains letter for letter."""
    chains = [
        tuple(chain_from_ktree(t, k)) for t in trees_of(n, k)
    ]
    primes = [ch for ch in chains if ch[0].is_prime()]
    assert len(primes) == (k * n - 1) ** (n - 1)
    for perm in all_permutations(n):
        fixed = sum(
            1 for ch in primes if tuple(e.act(perm) for e in ch) == ch
        )
        assert fixed == prime_parking_character(n, k, perm)


def test_prime_words_small():
    assert [w for w in enumerate_parking_words(3, 1) if is_prime_parking_word(w)] == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert [
        w for w in enumerate_parking_words(2, 2) if is_prime_parking_word(w, 2)
    ] == [(1, 1), (1, 2), (2, 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_prime_at_k1_means_any_car_can_leave(n):
    for word in enumerate_parking_words(n, 1):
        survives = all(
            is_parking_word(word[:i] + word[i + 1 :], 1) for i in range(n)
        )
        assert is_prime_parking_word(word, 1) == survives


@pytest.mark.parametrize("n", [2, 3, 4])
def test_prime_word_matches_prime_element_at_k1(n):
    for elem in build_pp_poset(n).elements:
        assert elem.is_prime() == is_prime_parking_word(elem.word, 1)
