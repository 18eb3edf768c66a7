"""Order-complex homology of the parking function poset, checked two ways.

The generic chain-complex machinery is validated on small posets whose
homotopy type is known by hand (segments, antichains, the boolean lattice).
The parking facts are then checked against independent routes: Betti
numbers against Mobius values, the Hopf trace character against the closed
product formula, and Whitney module dimensions against both.
"""

import copy
import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from parkposet import homology
from parkposet.enumeration import prime_parking_character
from parkposet.forests import build_cluster_poset, cluster_action
from parkposet.homology import (
    chains_by_size,
    count_chains_by_size,
    interval_catalan_weight,
    lefschetz_number,
    parking_betti,
    reduced_betti,
    reduced_euler_characteristic,
    signed_prime_character,
    sparse_rank,
    top_homology_character,
    whitney_module_character,
)
from parkposet.kdivisible import (
    build_nck_poset,
    build_ppk_poset,
    ppk_action,
    ppk_action_ids,
)
from parkposet.nc import (
    NoncrossingPartition,
    Permutation,
    class_representatives,
    enumerate_noncrossing,
)
from parkposet.numbers import binomial, catalan
from parkposet.objects import ParkingElement, enumerate_elements
from parkposet.parking_order import (
    build_nc_poset,
    build_pp_poset,
    permutahedron_face_poset,
    pp_action_ids,
)
from parkposet.poset import FinitePoset


def all_permutations(n):
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def boolean_lattice(n):
    ground = range(1, n + 1)
    elements = [
        frozenset(c) for size in range(n + 1) for c in combinations(ground, size)
    ]
    covers = [
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if a < b and len(b) == len(a) + 1
    ]
    return FinitePoset(elements, covers)


def chain_poset(length):
    return FinitePoset(list(range(length)), [(i, i + 1) for i in range(length - 1)])


def antichain(size):
    return FinitePoset(list(range(size)), [])


def lefschetz_by_chains(proper, transform):
    """The chain route to lefschetz_number, on a proper part and a map of
    its elements: the reduced Euler characteristic of the subposet of
    fixed elements, by counting its chains."""
    fixed = [x for x in proper.elements if transform(x) == x]
    sub = proper if len(fixed) == len(proper) else proper.induced(fixed)
    return reduced_euler_characteristic(sub)


def fraction_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fraction entries:
    the reference that the fraction-free `sparse_rank` is checked against."""
    pivots = {}
    rank = 0
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                rank += 1
                break
            factor = row[col] / piv[col]
            for c, v in piv.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return rank


def boundary_matrices(poset):
    """Every boundary matrix of the augmented chain complex of the order
    complex, from chains of size s to size s - 1, for s = 1, 2, ..."""
    layers = chains_by_size(poset)
    matrices = []
    for s in range(1, len(layers)):
        position = {ch: i for i, ch in enumerate(layers[s - 1])}
        matrices.append(
            [
                {position[ch[:i] + ch[i + 1 :]]: (-1) ** i for i in range(len(ch))}
                for ch in layers[s]
            ]
        )
    return matrices


def transpose(rows, width):
    """The transpose of a sparse matrix with `width` columns, one row per
    column, empty rows included."""
    out = [{} for _ in range(width)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[c][r] = v
    return out


def random_sparse_matrix(rng, fractions):
    """A sparse matrix with zero rows and rows that are combinations of
    earlier rows, entries int or Fraction."""
    cols = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(1, 16)):
        kind = rng.random()
        if kind < 0.15:
            rows.append({} if rng.random() < 0.5 else {rng.randrange(cols): 0})
        elif kind < 0.45 and rows:
            row = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                scale = rng.choice([-3, -2, -1, 1, 2, 5])
                if fractions:
                    scale = Fraction(scale, rng.randint(1, 7))
                for c, v in other.items():
                    row[c] = row.get(c, 0) + scale * v
            rows.append(row)
        else:
            row = {}
            for c in rng.sample(range(cols), rng.randint(1, min(cols, 4))):
                value = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 9])
                if fractions:
                    value = Fraction(value, rng.randint(1, 9))
                row[c] = value
            rows.append(row)
    return rows


PROPER_PARTS = {
    "pp(2)": lambda: build_pp_poset(2).without_bottom(),
    "pp(3)": lambda: build_pp_poset(3).without_bottom(),
    "pp(4)": lambda: build_pp_poset(4).without_bottom(),
    "cluster(3)": lambda: build_cluster_poset(3).without_bottom(),
    "cluster(4)": lambda: build_cluster_poset(4).without_bottom(),
    "ppk(3,2)": lambda: build_ppk_poset(3, 2).without_bottom(),
    "ppk(4,2)": lambda: build_ppk_poset(4, 2).without_bottom(),
}


# each builder with whether it numbers every cover upward in id (True) or
# every cover downward (False)
COVER_DIRECTIONS = {
    "pp(5)": (lambda: build_pp_poset(5), True),
    "nc(6)": (lambda: build_nc_poset(6), True),
    "permutahedron(4)": (lambda: permutahedron_face_poset(4), True),
    "ppk(4,2)": (lambda: build_ppk_poset(4, 2), False),
    "nck(4,2)": (lambda: build_nck_poset(4, 2), False),
    "cluster(4)": (lambda: build_cluster_poset(4), False),
}


def cover_directions(poset):
    """The set of values of `low < high` over the cover id pairs."""
    return {i < j for i, j in poset.cover_index_pairs()}


def shuffled(poset, seed):
    """The same poset on ids permuted at random, so that its covers point
    both ways in id."""
    image = list(range(len(poset)))
    random.Random(seed).shuffle(image)
    elements = [None] * len(poset)
    for i, x in enumerate(poset.elements):
        elements[image[i]] = x
    covers = [(image[i], image[j]) for i, j in poset.cover_index_pairs()]
    return FinitePoset(elements, covers)


# posets on which the leading column of every coboundary row is checked
LEADING_CASES = {
    "pp(3)": lambda: build_pp_poset(3).without_bottom(),
    "pp(4)": lambda: build_pp_poset(4).without_bottom(),
    "pp(5)": lambda: build_pp_poset(5).without_bottom(),
    "nc(5)": lambda: build_nc_poset(5).without_bottom(),
    "ppk(3,2)": lambda: build_ppk_poset(3, 2).without_bottom(),
    "ppk(4,2)": lambda: build_ppk_poset(4, 2).without_bottom(),
    "nck(4,2)": lambda: build_nck_poset(4, 2).without_bottom(),
    "cluster(4)": lambda: build_cluster_poset(4).without_bottom(),
    "shuffled pp(4)": lambda: shuffled(build_pp_poset(4).without_bottom(), 2021),
}


@cache
def fraction_ranks(name):
    """fraction_rank of each unreduced boundary matrix of a PROPER_PARTS
    entry, shared by the tests that compare against it."""
    matrices = boundary_matrices(PROPER_PARTS[name]())
    return tuple(fraction_rank(rows) for rows in matrices)


# ----- generic machinery -----


class TestChains:
    def test_empty_poset(self):
        poset = FinitePoset([], [])
        assert count_chains_by_size(poset) == [1]
        assert chains_by_size(poset) == [[()]]
        assert reduced_betti(poset) == (1,)

    def test_singleton(self):
        poset = FinitePoset(["x"], [])
        assert count_chains_by_size(poset) == [1, 1]
        assert reduced_betti(poset) == (0, 0)

    def test_two_chain_counts(self):
        poset = chain_poset(2)
        assert count_chains_by_size(poset) == [1, 2, 1]
        assert chains_by_size(poset) == [[()], [(0,), (1,)], [(0, 1)]]

    def test_chain_is_contractible(self):
        for length in (2, 3, 4):
            assert reduced_betti(chain_poset(length)) == (0,) * (length + 1)

    def test_antichain_counts_points(self):
        for size in (2, 3, 5):
            assert reduced_betti(antichain(size)) == (0, size - 1)

    def test_counts_agree_with_materialized_chains(self):
        for poset in (
            boolean_lattice(3),
            build_pp_poset(3).without_bottom(),
            # ids that are not a linear extension: d < b < a and d < c
            FinitePoset("abcd", [(3, 1), (1, 0), (3, 2)]),
        ):
            layers = chains_by_size(poset)
            assert [len(layer) for layer in layers] == count_chains_by_size(poset)
            # every totally ordered subset of ids, from bottom to top; in a
            # chain the larger element has the larger down set
            brute: list[list[tuple[int, ...]]] = []
            for size in range(len(poset) + 1):
                layer = sorted(
                    tuple(sorted(ids, key=lambda i: poset.downset_mask(i).bit_count()))
                    for ids in combinations(range(len(poset)), size)
                    if all(
                        poset.leq_index(i, j) or poset.leq_index(j, i)
                        for i, j in combinations(ids, 2)
                    )
                )
                if layer:
                    brute.append(layer)
            assert layers == brute

    def test_boolean_proper_part_is_a_circle(self):
        proper = boolean_lattice(3).without_bottom().without_top()
        assert reduced_betti(proper) == (0, 0, 1)

    def test_boolean_full_lattice_is_contractible(self):
        assert set(reduced_betti(boolean_lattice(3))) == {0}

    @given(
        st.sets(st.integers(min_value=0, max_value=14), min_size=0, max_size=8)
    )
    def test_euler_matches_betti_on_random_subposets(self, indices):
        proper = build_pp_poset(3).without_bottom()
        sub = proper.induced([proper.elements[i] for i in indices])
        betti = reduced_betti(sub)
        assert reduced_euler_characteristic(sub) == sum(
            (-1) ** (m - 1) * b for m, b in enumerate(betti)
        )


class TestSparseRank:
    def test_identity(self):
        rows = [{0: 1}, {1: 1}, {2: 1}]
        assert sparse_rank(rows) == 3

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 1: 1}]
        assert sparse_rank(rows) == 2

    def test_zero_rows_ignored(self):
        assert sparse_rank([{}, {0: 0}, {1: 3}]) == 1

    def test_fraction_entries(self):
        rows = [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}]
        assert sparse_rank(rows) == 1

    def test_rectangular(self):
        rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 2: 0}]
        assert sparse_rank(rows) == 2

    @pytest.mark.parametrize("name", sorted(PROPER_PARTS))
    def test_boundary_matrices_match_fraction_rank(self, name):
        matrices = boundary_matrices(PROPER_PARTS[name]())
        assert tuple(sparse_rank(rows) for rows in matrices) == fraction_ranks(name)

    @pytest.mark.parametrize("fractions", [False, True])
    def test_random_matrices_match_fraction_rank(self, fractions):
        rng = random.Random(20211 + fractions)
        for _ in range(300):
            rows = random_sparse_matrix(rng, fractions)
            before = copy.deepcopy(rows)
            assert sparse_rank(rows) == fraction_rank(rows)
            assert rows == before

    def test_int_and_fraction_rows_mixed_match_fraction_rank(self):
        rng = random.Random(20217)
        for _ in range(300):
            rows = random_sparse_matrix(rng, fractions=False)
            # Turn some rows into Fraction rows, some of them with
            # integral entries, and leave the others as int rows.
            for t, row in enumerate(rows):
                if rng.random() < 0.5:
                    d = rng.choice([1, 2, 3, 5])
                    rows[t] = {c: Fraction(v, d) for c, v in row.items()}
            before = copy.deepcopy(rows)
            assert sparse_rank(rows) == fraction_rank(rows)
            assert rows == before
            assert [type(v) for r in rows for v in r.values()] == [
                type(v) for r in before for v in r.values()
            ]

    def test_pivot_rows(self):
        rows = [{2: Fraction(-2, 3), 5: Fraction(4, 9)}, {0: 6, 2: 4}, {0: 3, 2: 2}]
        pivots = {}
        assert sparse_rank(rows, pivots) == len(pivots) == 2
        assert pivots == {2: {2: 3, 5: -2}, 0: {0: 3, 2: 2}}
        assert all(type(v) is int for row in pivots.values() for v in row.values())

    @pytest.mark.parametrize("name", sorted(PROPER_PARTS))
    def test_clearing_keeps_every_rank(self, name, monkeypatch):
        poset = PROPER_PARTS[name]()
        sizes = [len(layer) for layer in chains_by_size(poset)]
        coboundaries = [
            transpose(rows, sizes[s]) for s, rows in enumerate(boundary_matrices(poset))
        ]
        plain = [sparse_rank(rows) for rows in coboundaries]
        seen = []

        def recording_rank(rows, pivots=None):
            # the pivots held at call time are the apparent ones: rows
            # kept and counted in the rank with no row built
            apparent = len(pivots)
            rank = sparse_rank(rows, pivots)
            seen.append((len(rows) + apparent, rank + apparent))
            return rank

        monkeypatch.setattr(homology, "sparse_rank", recording_rank)
        reduced_betti(poset)
        # reduced_betti works on coboundaries from the smallest chain size
        # up, and leaves out of each matrix one row per pivot of the
        # matrix below it.
        kept = [len(rows) for rows in coboundaries]
        for s in range(1, len(coboundaries)):
            kept[s] -= plain[s - 1]
        assert seen == list(zip(kept, plain))

    @pytest.mark.parametrize("name", sorted(LEADING_CASES))
    def test_leading_column_is_the_rows_smallest(self, name):
        # the column and sign read from the masks are the smallest column
        # of the coboundary row built from the boundary, and its entry
        dual = homology._top_down(LEADING_CASES[name]())
        coboundary = homology._Coboundary(dual)
        layers = chains_by_size(dual)
        for s, rows in enumerate(boundary_matrices(dual)):
            for chain, row in zip(layers[s], transpose(rows, len(layers[s]))):
                col = min(row, default=None)
                lead = (None, 0) if col is None else (layers[s + 1][col], row[col])
                assert coboundary.leading(chain) == lead
                assert coboundary.row(chain) == {
                    layers[s + 1][c]: v for c, v in row.items()
                }

    @pytest.mark.parametrize("wrong", ["largest id", "flipped sign"])
    def test_wrong_leading_column_is_caught(self, wrong, monkeypatch):
        # a pivot held with no row built is checked when its row is built
        leading = homology._Coboundary.leading

        def mistaken(self, chain):
            col, sign = leading(self, chain)
            if col is None or wrong == "flipped sign":
                return col, -sign
            gaps = list(self.gaps(chain))
            p = next(p for p, gap in enumerate(gaps) if gap)
            return chain[:p] + (gaps[p].bit_length() - 1,) + chain[p:], sign

        monkeypatch.setattr(homology._Coboundary, "leading", mistaken)
        with pytest.raises(RuntimeError, match="does not lead at"):
            reduced_betti(build_pp_poset(4).without_bottom())

    @pytest.mark.parametrize("name", sorted(COVER_DIRECTIONS))
    def test_builder_id_orientation(self, name):
        # _top_down keeps the ids of a builder that numbers every cover
        # downward and reverses those of one that numbers every cover
        # upward, so the dual's ids are a linear extension, which the
        # leading column read from the masks needs
        build, upward = COVER_DIRECTIONS[name]
        poset = build()
        assert cover_directions(poset) == {upward}
        m = len(poset)
        new = range(m - 1, -1, -1) if upward else range(m)
        dual_covers = {(new[j], new[i]) for i, j in poset.cover_index_pairs()}
        assert set(homology._top_down(poset).cover_index_pairs()) == dual_covers

    @pytest.mark.parametrize("name", ["pp(4)", "cluster(4)"])
    def test_betti_on_shuffled_ids(self, name):
        poset = PROPER_PARTS[name]()
        sizes = [len(layer) for layer in chains_by_size(poset)]
        ranks = [0, *fraction_ranks(name), 0]
        expected = tuple(sizes[s] - ranks[s] - ranks[s + 1] for s in range(len(sizes)))
        assert reduced_betti(poset) == expected
        for seed in range(3):
            other = shuffled(poset, seed)
            assert cover_directions(other) == {True, False}
            assert reduced_betti(other) == expected

    @pytest.mark.parametrize("name", sorted(PROPER_PARTS))
    def test_betti_match_unreduced_fraction_ranks(self, name):
        poset = PROPER_PARTS[name]()
        sizes = [len(layer) for layer in chains_by_size(poset)]
        ranks = [0, *fraction_ranks(name), 0]
        expected = tuple(sizes[s] - ranks[s] - ranks[s + 1] for s in range(len(sizes)))
        assert reduced_betti(poset) == expected


# ----- parking function poset -----


class TestParkingBetti:
    def test_small_values(self):
        assert parking_betti(2) == (0, 1)
        assert parking_betti(3) == (0, 0, 4)
        assert parking_betti(4) == (0, 0, 0, 27)
        assert parking_betti(5) == (0, 0, 0, 0, 256)

    def test_top_dimension_formula(self):
        for n in (2, 3, 4):
            betti = parking_betti(n)
            assert betti[-1] == (n - 1) ** (n - 1)
            assert all(b == 0 for b in betti[:-1])

    def test_top_betti_counts_prime_elements(self):
        for n in (3, 4):
            primes = sum(1 for e in enumerate_elements(n) if e.is_prime())
            assert parking_betti(n)[-1] == primes


class TestMobius:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mobius_of_bounded_poset(self, n):
        assert build_pp_poset(n).mobius_hat() == (-1) ** n * (n - 1) ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mobius_equals_reduced_euler_of_proper_part(self, n):
        poset = build_pp_poset(n)
        assert poset.mobius_hat() == reduced_euler_characteristic(
            poset.without_bottom()
        )


class TestChainCountIdentity:
    def test_frozen_counts(self):
        assert count_chains_by_size(build_pp_poset(3).without_bottom()) == [
            1,
            15,
            18,
        ]
        assert count_chains_by_size(build_pp_poset(4).without_bottom()) == [
            1,
            124,
            480,
            384,
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binomial_transform_gives_multichain_count(self, n):
        counts = count_chains_by_size(build_pp_poset(n).without_bottom())
        for k in range(6):
            assert (k * n + 1) ** (n - 1) == sum(
                binomial(k, s) * c for s, c in enumerate(counts)
            )

    def test_longest_chains_are_the_maximal_ones(self):
        for n in (3, 4):
            counts = count_chains_by_size(build_pp_poset(n).without_bottom())
            assert counts[n - 1] == math.factorial(n) * n ** (n - 2)


class TestHomologyCharacter:
    def test_frozen_values_n3(self):
        values = {
            Permutation((1, 2, 3)): 4,
            Permutation((2, 1, 3)): -2,
            Permutation((2, 3, 1)): 1,
        }
        for perm, expected in values.items():
            assert top_homology_character(3, perm) == expected

    def test_frozen_values_n4(self):
        by_type = {
            (1, 1, 1, 1): 27,
            (2, 1, 1): -9,
            (2, 2): 3,
            (3, 1): 3,
            (4,): -1,
        }
        for perm in all_permutations(4):
            assert (
                top_homology_character(4, perm)
                == by_type[perm.cycle_type()]
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_closed_formula_exhaustively(self, n):
        for perm in all_permutations(n):
            assert top_homology_character(n, perm) == signed_prime_character(
                n, 1, perm
            )

    def test_matches_closed_formula_n5_class_representatives(self):
        reps = [
            Permutation((1, 2, 3, 4, 5)),
            Permutation((2, 1, 3, 4, 5)),
            Permutation((2, 1, 4, 3, 5)),
            Permutation((2, 3, 1, 4, 5)),
            Permutation((2, 3, 1, 5, 4)),
            Permutation((2, 3, 4, 1, 5)),
            Permutation((2, 3, 4, 5, 1)),
        ]
        assert len({p.cycle_type() for p in reps}) == 7
        for perm in reps:
            assert top_homology_character(5, perm) == signed_prime_character(
                5, 1, perm
            )

    def test_closed_formula_is_sign_times_prime_character(self):
        for n in (2, 3, 4, 5):
            for perm in all_permutations(n)[:30]:
                sign = (-1) ** (n - perm.num_cycles())
                assert signed_prime_character(n, 1, perm) == sign * (
                    prime_parking_character(n, 1, perm)
                )

    def test_identity_value_is_top_betti(self):
        for n in (2, 3, 4):
            assert signed_prime_character(n, 1, Permutation.identity(n)) == (
                parking_betti(n)[-1]
            )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signed_prime_character(4, 1, Permutation((2, 1, 3)))


class TestLefschetz:
    def test_identity_gives_euler(self):
        poset = build_pp_poset(3)
        assert lefschetz_number(poset, range(len(poset))) == (
            reduced_euler_characteristic(poset.without_bottom())
        )

    def test_fixed_point_free_map_on_antichain(self):
        # the antichain {1, 2} under a bottom 0, its two points swapped
        poset = FinitePoset([0, 1, 2], [(0, 1), (0, 2)])
        assert lefschetz_number(poset, [0, 2, 1]) == -1

    def test_needs_a_unique_bottom(self):
        with pytest.raises(ValueError):
            lefschetz_number(antichain(2), [0, 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_route_on_parking_posets(self, n):
        poset = build_pp_poset(n)
        for perm in class_representatives(n):
            image = [poset.index[e.act(perm)] for e in poset.elements]
            assert lefschetz_number(poset, image) == lefschetz_by_chains(
                poset.without_bottom(), lambda e: e.act(perm)
            )

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
    def test_chain_route_on_ppk_posets(self, n, k):
        poset = build_ppk_poset(n, k)
        for perm in class_representatives(n):
            image = [poset.index[ppk_action(perm, c)] for c in poset.elements]
            assert lefschetz_number(poset, image) == lefschetz_by_chains(
                poset.without_bottom(), lambda c: ppk_action(perm, c)
            )

    @pytest.mark.parametrize("n", [3, 4])
    def test_chain_route_on_cluster_posets(self, n):
        poset = build_cluster_poset(n)
        for perm in class_representatives(n):
            image = [poset.index[cluster_action(perm, x)] for x in poset.elements]
            assert lefschetz_number(poset, image) == lefschetz_by_chains(
                poset.without_bottom(), lambda x: cluster_action(perm, x)
            )


class TestActionIds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pp_ids_match_act_for_every_permutation(self, n):
        poset = build_pp_poset(n)
        for perm in all_permutations(n):
            assert pp_action_ids(n, perm) == [
                poset.index[e.act(perm)] for e in poset.elements
            ]

    def test_pp_ids_match_act_on_class_representatives_n5(self):
        poset = build_pp_poset(5)
        for perm in class_representatives(5):
            assert pp_action_ids(5, perm) == [
                poset.index[e.act(perm)] for e in poset.elements
            ]

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_ppk_ids_match_ppk_action(self, n, k):
        poset = build_ppk_poset(n, k)
        perms = all_permutations(n) if n < 4 else class_representatives(n)
        for perm in perms:
            assert ppk_action_ids(n, k, perm) == [
                poset.index[ppk_action(perm, c)] for c in poset.elements
            ]

    def test_ppk_ids_hash_no_element(self, monkeypatch):
        poset = build_ppk_poset(3, 2)
        perms = all_permutations(3)
        expected = [
            [poset.index[ppk_action(perm, c)] for c in poset.elements]
            for perm in perms
        ]

        def refuse(self):
            raise AssertionError("rich element hashed on the ppk action path")

        monkeypatch.setattr(ParkingElement, "__hash__", refuse)
        monkeypatch.setattr(NoncrossingPartition, "__hash__", refuse)
        assert [ppk_action_ids(3, 2, perm) for perm in perms] == expected

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pp_action_ids(4, Permutation((2, 1, 3)))


# ----- Whitney modules -----


class TestWhitneyModules:
    def test_dimensions_n3(self):
        assert [whitney_module_character(3, l) for l in range(3)] == [1, 9, 12]

    def test_dimensions_n4(self):
        assert [whitney_module_character(4, l) for l in range(4)] == [
            1,
            28,
            120,
            120,
        ]

    def test_bottom_rank_is_trivial_module(self):
        for n in (2, 3, 4, 5):
            assert whitney_module_character(n, 0) == 1

    def test_top_rank_dimension(self):
        for n in (3, 4, 5):
            assert whitney_module_character(n, n - 1) == math.factorial(
                n
            ) * catalan(n - 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_alternating_sum_gives_homology_character(self, n):
        for perm in all_permutations(n):
            alternating = sum(
                (-1) ** l * whitney_module_character(n, l, perm)
                for l in range(n)
            )
            assert (-1) ** (n - 1) * alternating == top_homology_character(
                n, perm
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fixed_ids_match_the_action_on_elements(self, n):
        # the trace by ParkingElement.act, over every element
        for perm in class_representatives(n):
            for l in range(n):
                expected = sum(
                    interval_catalan_weight(elem.partition)
                    for elem in enumerate_elements(n)
                    if elem.rank == l and elem.act(perm) == elem
                )
                assert whitney_module_character(n, l, perm) == expected

    def test_alternating_dimension_sum_n5(self):
        total = 0
        for elem in enumerate_elements(5):
            total += (-1) ** elem.rank * interval_catalan_weight(elem.partition)
        assert (-1) ** 4 * total == 4**4

    def test_character_is_a_class_function(self):
        conjugator = Permutation((3, 1, 4, 2))
        perm = Permutation((2, 1, 4, 3))
        conjugate = conjugator * perm * conjugator.inverse()
        for l in range(4):
            assert whitney_module_character(4, l, perm) == whitney_module_character(
                4, l, conjugate
            )


class TestIntervalWeights:
    def test_one_block_partition_has_weight_one(self):
        from parkposet.nc import NoncrossingPartition

        for n in (2, 3, 4, 5):
            bottom = NoncrossingPartition(n, [range(1, n + 1)])
            assert interval_catalan_weight(bottom) == 1

    def test_singletons_weigh_a_full_catalan_number(self):
        from parkposet.nc import NoncrossingPartition

        for n in (2, 3, 4, 5):
            top = NoncrossingPartition(n, [[i] for i in range(1, n + 1)])
            assert interval_catalan_weight(top) == catalan(n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_open_intervals_have_catalan_product_homology(self, n):
        poset = build_nc_poset(n)
        bottom = poset.bottom()
        for pi in enumerate_noncrossing(n):
            rank = poset.rank_of(pi)
            if rank == 0:
                continue
            interval = poset.interval(bottom, pi).without_bottom().without_top()
            expected = [0] * rank
            expected[rank - 1] = interval_catalan_weight(pi)
            assert list(reduced_betti(interval)) == expected
