"""k-divisible noncrossing partitions and parking chains.

The chain picture is checked against Fuss-Catalan counts, zeta
polynomials, Mobius values, homology, and characters; the subposet
picture against the chain picture, by poset isomorphism in the
noncrossing case and by the block-size-type multiset identity (the
h_i -> h_{ki} substitution on Frobenius characteristics) in the parking
case.
"""

import math
from collections import Counter
from itertools import permutations

import pytest

from parkposet import kdivisible
from parkposet.enumeration import parking_character, prime_parking_character
from parkposet.homology import (
    lefschetz_number,
    reduced_betti,
    signed_prime_character,
)
from parkposet.kdivisible import (
    build_divisible_nc_poset,
    build_divisible_parking_poset,
    build_nck_poset,
    build_ppk_poset,
    divisible_nc_elements,
    divisible_parking_elements,
    is_prime_chain,
    nck_elements,
    nck_leq,
    ppk_action,
    ppk_elements,
    ppk_leq,
    relative_complement_chain,
    weak_chains,
)
from parkposet.nc import (
    NoncrossingPartition,
    Permutation,
    class_representatives,
    enumerate_noncrossing,
    kreweras,
    nc_leq,
    relative_kreweras,
)
from parkposet.numbers import chain_count, fuss_catalan
from parkposet.objects import enumerate_elements
from parkposet.parking_order import (
    build_nc_poset,
    build_pp_poset,
    descend,
    ideal,
    pp_leq,
)
from parkposet.poset import FinitePoset, posets_isomorphic


def all_permutations(n):
    return [Permutation(p) for p in permutations(range(1, n + 1))]


@pytest.fixture(scope="module")
def nck32():
    return build_nck_poset(3, 2)


@pytest.fixture(scope="module")
def ppk32():
    return build_ppk_poset(3, 2)


@pytest.fixture(scope="module")
def ppk33():
    return build_ppk_poset(3, 3)


@pytest.fixture(scope="module")
def ppk42():
    return build_ppk_poset(4, 2)


class TestWeakChains:
    def test_two_element_chain(self):
        chains = weak_chains([0, 1], lambda a, b: a <= b, 2)
        assert sorted(chains) == [(0, 0), (0, 1), (1, 1)]

    def test_length_one(self):
        assert weak_chains("ab", lambda a, b: a == b, 1) == [("a",), ("b",)]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            weak_chains([1], lambda a, b: True, 0)

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (3, 3), (2, 60)])
    def test_id_walks_list_chains_as_the_oracle(self, n, k):
        # The listing order fixes the poset ids, and so the CLI output.
        nc = list(enumerate_noncrossing(n))
        assert nck_elements(n, k) == weak_chains(nc, nc_leq, k)
        assert ppk_elements(n, k) == weak_chains(list(enumerate_elements(n)), pp_leq, k)

    def test_walk_reaches_the_longest_chains(self):
        # k = 499 at n = 2 is the longest chain the kdivisible budget admits.
        assert len(ppk_elements(2, 499)) == 999

    def test_element_chains_leave_the_id_listings_as_ids(self):
        listings = (
            (kdivisible._parking_chain_ids, ppk_elements, build_pp_poset(3)),
            (kdivisible._nc_chain_ids, nck_elements, build_nc_poset(3)),
        )
        for listing, elements, base in listings:
            before = list(listing(3, 2))
            chains = elements(3, 2)
            assert list(listing(3, 2)) == before
            assert all(type(i) is int for chain in listing(3, 2) for i in chain)
            assert chains == [tuple(base.elements[i] for i in c) for c in before]
            assert elements(3, 2) == chains


class TestRelativeComplements:
    def test_constant_bottom_chain(self):
        bottom = NoncrossingPartition(3, [[1, 2, 3]])
        top = NoncrossingPartition(3, [[1], [2], [3]])
        assert relative_complement_chain(3, (bottom, bottom)) == (top, top)

    def test_first_entry_is_kreweras(self):
        for chain in nck_elements(3, 2):
            assert relative_complement_chain(3, chain)[0] == kreweras(chain[0])

    def test_injective(self):
        chains = nck_elements(3, 2)
        vectors = {relative_complement_chain(3, c) for c in chains}
        assert len(vectors) == len(chains)


class TestNckPoset:
    @pytest.mark.parametrize(
        "n,k", [(2, 2), (3, 2), (3, 3), (4, 2)]
    )
    def test_fuss_catalan_count(self, n, k):
        assert len(nck_elements(n, k)) == fuss_catalan(n, k + 1)

    def test_rank_sizes(self, nck32):
        assert nck32.whitney_second() == [1, 6, 5]

    def test_graded_by_last_blocks(self, nck32):
        for chain in nck32.elements:
            assert nck32.rank_of(chain) == len(chain[-1]) - 1

    def test_bottom_is_constant_one_block(self, nck32):
        bottom = NoncrossingPartition(3, [[1, 2, 3]])
        assert nck32.bottom() == (bottom, bottom)

    def test_maximal_elements_end_in_singletons(self, nck32):
        top = NoncrossingPartition(3, [[1], [2], [3]])
        for i in nck32.maximal_indices():
            assert nck32.elements[i][-1] == top

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3)])
    def test_zeta_counts_longer_chains(self, n, k):
        poset = build_nck_poset(n, k)
        for j in (1, 2, 3):
            assert poset.zeta_count(j) == fuss_catalan(n, j * k + 1)

    def test_nck_leq_matches_poset(self, nck32):
        for poset in (nck32, build_nck_poset(4, 2)):
            for a in poset.elements:
                for b in poset.elements:
                    assert nck_leq(a, b) == poset.leq(a, b)


def test_builders_compare_base_poset_ids(monkeypatch):
    def refuse(*args):
        raise AssertionError("rich comparator called")

    for name in ("pp_leq", "nc_leq", "ppk_leq", "nck_leq", "weak_chains"):
        monkeypatch.setattr(kdivisible, name, refuse)
    monkeypatch.setattr(FinitePoset, "from_leq", refuse)
    monkeypatch.setattr(FinitePoset, "leq", refuse)
    assert len(build_ppk_poset(3, 2)) == 49
    assert len(build_nck_poset(3, 2)) == fuss_catalan(3, 3)


def test_ppk_chains_extend_from_masks(monkeypatch):
    pp = build_pp_poset(3)
    calls = []
    original = pp.leq_index

    def counted(i, j):
        calls.append((i, j))
        return original(i, j)

    monkeypatch.setattr(pp, "leq_index", counted)
    assert len(build_ppk_poset(3, 2)) == 49
    assert kdivisible.build_pp_poset(3) is pp
    assert calls == []


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (2, 5)])
def test_one_relative_complement_per_pair(monkeypatch, n, k):
    calls = []

    def counted(p, t):
        calls.append((p, t))
        return relative_kreweras(p, t)

    monkeypatch.setattr(kdivisible, "relative_kreweras", counted)
    poset = build_nck_poset(n, k)
    chains = nck_elements(n, k)
    bottom = NoncrossingPartition.bottom(n)
    pairs = {pair for c in chains for pair in zip((bottom,) + c, c)}
    assert len(calls) == len(set(calls)) == len(pairs)
    assert poset.elements == chains
    oracle = FinitePoset.from_leq(chains, lambda i, j: nck_leq(chains[i], chains[j]))
    assert poset.cover_index_pairs() == oracle.cover_index_pairs()


class TestPosetsIsomorphic:
    def test_relabeled_copy(self):
        a = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
        b = FinitePoset("wxyz", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert posets_isomorphic(a, b)

    def test_chain_vs_antichain(self):
        chain = FinitePoset([0, 1], [(0, 1)])
        antichain = FinitePoset([0, 1], [])
        assert not posets_isomorphic(chain, antichain)

    def test_same_degrees_different_posets(self):
        hexagon = FinitePoset(
            range(6), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)]
        )
        other = FinitePoset(
            range(6), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
        )
        assert not posets_isomorphic(hexagon, other)

    def test_size_mismatch(self):
        assert not posets_isomorphic(
            FinitePoset([0], []), FinitePoset([0, 1], [])
        )


class TestEdelmanSubposet:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3)])
    def test_isomorphic_to_chain_picture(self, n, k):
        sub = build_divisible_nc_poset(n, k)
        assert len(sub) == fuss_catalan(n, k + 1)
        assert posets_isomorphic(sub, build_nck_poset(n, k))

    def test_divisible_elements_have_divisible_blocks(self):
        for p in divisible_nc_elements(3, 2):
            assert all(len(b) % 2 == 0 for b in p.blocks)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_block_type_multisets_match_after_scaling(self, n, k):
        scaled = Counter(
            tuple(sorted(k * len(b) for b in chain[-1].blocks))
            for chain in nck_elements(n, k)
        )
        subposet = Counter(
            tuple(sorted(len(b) for b in p.blocks))
            for p in divisible_nc_elements(n, k)
        )
        assert scaled == subposet


class TestPpkPoset:
    def test_counts(self, ppk32, ppk33, ppk42):
        assert len(ppk32) == 49
        assert len(ppk33) == 100
        assert len(ppk42) == 729
        assert len(ppk_elements(2, 2)) == 5

    def test_rank_sizes_are_chain_counts(self, ppk32, ppk33, ppk42):
        for n, k, poset in ((3, 2, ppk32), (3, 3, ppk33), (4, 2, ppk42)):
            assert poset.whitney_second() == [
                chain_count(n, k, l) for l in range(n)
            ]

    def test_graded_by_last_element(self, ppk32):
        for chain in ppk32.elements:
            assert ppk32.rank_of(chain) == chain[-1].rank

    def test_zeta_counts(self, ppk32, ppk42):
        for j in (1, 2, 3):
            assert ppk32.zeta_count(j) == (j * 2 * 3 + 1) ** 2
        assert ppk42.zeta_count(2) == (2 * 2 * 4 + 1) ** 3

    def test_equivariant_zeta(self, ppk32):
        n, k = 3, 2
        for perm in all_permutations(n):
            fixed = [
                c for c in ppk32.elements if ppk_action(perm, c) == c
            ]
            sub = ppk32.induced(fixed)
            z = perm.num_cycles()
            for j in (1, 2):
                assert sub.zeta_count(j) == (j * k * n + 1) ** (z - 1)

    def test_mobius(self, ppk32, ppk33, ppk42):
        for n, k, poset in ((3, 2, ppk32), (3, 3, ppk33), (4, 2, ppk42)):
            assert poset.mobius_hat() == (-1) ** n * (k * n - 1) ** (n - 1)

    def test_chain_recovered_from_top_and_partitions(self, ppk32):
        for chain in ppk32.elements:
            for elem in chain:
                assert elem == descend(chain[-1], elem.partition)

    def test_principal_ideals_match_nc_chain_ideals(self, ppk32, nck32):
        for chain in ppk32.elements:
            nc_chain = tuple(x.partition for x in chain)
            size = bin(
                ppk32.downset_mask(ppk32.index[chain])
            ).count("1")
            nc_size = bin(
                nck32.downset_mask(nck32.index[nc_chain])
            ).count("1")
            assert size == nc_size

    def test_ppk_leq_matches_poset(self, ppk32, ppk33):
        for poset in (ppk32, ppk33):
            for a in poset.elements:
                for b in poset.elements:
                    assert ppk_leq(a, b) == poset.leq(a, b)

    def test_projection_to_nc_chains_preserves_order(self, ppk32, nck32):
        elements = ppk32.elements[::5]
        for a in elements:
            for b in elements:
                if ppk32.leq(a, b):
                    assert nck32.leq(
                        tuple(x.partition for x in a),
                        tuple(x.partition for x in b),
                    )


class TestPpkAction:
    def test_permutes_elements(self, ppk32):
        elements = set(ppk32.elements)
        for perm in all_permutations(3):
            assert {ppk_action(perm, c) for c in elements} == elements

    def test_preserves_order(self, ppk32):
        perm = Permutation((2, 3, 1))
        elements = ppk32.elements[::6]
        for a in elements:
            for b in elements:
                assert ppk32.leq(a, b) == ppk32.leq(
                    ppk_action(perm, a), ppk_action(perm, b)
                )

    def test_fixed_counts_give_parking_character(self, ppk32, ppk33, ppk42):
        cases = [(3, 2, ppk32), (3, 3, ppk33)]
        for n, k, poset in cases:
            for perm in all_permutations(n):
                fixed = sum(
                    1 for c in poset.elements if ppk_action(perm, c) == c
                )
                assert fixed == parking_character(n, k, perm)
        for perm in class_representatives(4):
            fixed = sum(
                1 for c in ppk42.elements if ppk_action(perm, c) == c
            )
            assert fixed == parking_character(4, 2, perm)


class TestPrimeChains:
    def test_counts(self, ppk32, ppk33, ppk42):
        for n, k, poset in ((3, 2, ppk32), (3, 3, ppk33), (4, 2, ppk42)):
            primes = sum(1 for c in poset.elements if is_prime_chain(c))
            assert primes == (k * n - 1) ** (n - 1)
        assert sum(1 for c in ppk_elements(2, 2) if is_prime_chain(c)) == 3

    def test_prime_means_some_element_prime(self, ppk32, ppk33):
        for poset in (ppk32, ppk33):
            for chain in poset.elements:
                assert is_prime_chain(chain) == any(
                    x.is_prime() for x in chain
                )

    def test_fixed_prime_counts_give_prime_character(self, ppk32, ppk33):
        for n, k, poset in ((3, 2, ppk32), (3, 3, ppk33)):
            for perm in all_permutations(n):
                fixed = sum(
                    1
                    for c in poset.elements
                    if is_prime_chain(c) and ppk_action(perm, c) == c
                )
                assert fixed == prime_parking_character(n, k, perm)

    def test_reduces_to_ordinary_primes_at_k_one(self):
        for chain in ppk_elements(3, 1):
            assert is_prime_chain(chain) == chain[0].is_prime()
            assert len(chain) == 1


class TestPpkHomology:
    def test_betti_small(self, ppk32, ppk33):
        assert reduced_betti(
            build_ppk_poset(2, 2).without_bottom()
        ) == (0, 3)
        assert reduced_betti(ppk32.without_bottom()) == (0, 0, 25)
        assert reduced_betti(ppk33.without_bottom()) == (0, 0, 64)

    def test_characters_match_closed_formula(self, ppk32, ppk33):
        for n, k, poset in ((3, 2, ppk32), (3, 3, ppk33)):
            sign = -1 if (n - 2) % 2 else 1
            for perm in all_permutations(n):
                image = [poset.index[ppk_action(perm, c)] for c in poset.elements]
                value = sign * lefschetz_number(poset, image)
                assert value == signed_prime_character(n, k, perm)

    def test_characters_match_closed_formula_larger(self, ppk42):
        sign = -1 if (4 - 2) % 2 else 1
        for perm in class_representatives(4):
            image = [ppk42.index[ppk_action(perm, c)] for c in ppk42.elements]
            value = sign * lefschetz_number(ppk42, image)
            assert value == signed_prime_character(4, 2, perm)


class TestFibers:
    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_multichains_below_an_element(self, n, k):
        for phi in build_pp_poset(n).elements:
            below = ideal(phi)
            sub = FinitePoset.from_leq(
                below, lambda i, j: pp_leq(below[i], below[j])
            )
            count = sub.zeta_count(k)
            expected = 1
            for block in kreweras(phi.partition).blocks:
                expected *= fuss_catalan(len(block), k + 1)
            assert count == expected


class TestDivisibleParkingPoset:
    def test_counts_and_ranks(self):
        poset = build_divisible_parking_poset(3, 2)
        assert len(poset) == 541
        assert poset.whitney_second() == [1, 90, 450]

    def test_orbits_are_partition_classes(self):
        elements = divisible_parking_elements(3, 2)
        partitions = {e.partition for e in elements}
        assert len(partitions) == fuss_catalan(3, 3)
        base = {p: next(e for e in elements if e.partition == p)
                for p in partitions}
        for p, seed in base.items():
            orbit = {seed.act(perm) for perm in all_permutations(6)}
            assert orbit == {e for e in elements if e.partition == p}

    def test_character_is_scaled_chain_character(self, ppk32):
        """Orbit types of the two permutation sets match after scaling.

        The symmetric-group character of a permutation set is the sum of
        complete homogeneous symmetric functions h_type over its orbits,
        so substituting h_i -> h_{ki} carries the chain poset character
        to the divisible subposet character exactly when the orbit type
        multisets agree after multiplying every part by k.
        """
        chain_orbits = {}
        for chain in ppk32.elements:
            nc = tuple(x.partition for x in chain)
            chain_orbits.setdefault(nc, set()).add(chain)
        for members in chain_orbits.values():
            seed = next(iter(members))
            orbit = {ppk_action(perm, seed) for perm in all_permutations(3)}
            assert orbit == members
        chain_types = Counter(
            tuple(sorted(2 * len(b) for b in nc[-1].blocks))
            for nc in chain_orbits
        )
        element_types = Counter(
            tuple(sorted(len(b) for b in e.partition.blocks))
            for e in divisible_parking_elements(3, 2)
        )
        orbit_types = Counter()
        for key, count in element_types.items():
            weight = math.factorial(6)
            for size in key:
                weight //= math.factorial(size)
            assert count % weight == 0
            orbit_types[key] = count // weight
        assert chain_types == orbit_types
