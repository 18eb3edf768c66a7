"""Noncrossing alternating forests, their complex, and cluster parking.

Face numbers are checked against Mobius computations on the noncrossing
partition lattice, the boundary subcomplex against its sphere homology,
and the cluster poset against the parking function poset: equal Whitney
numbers, equal homology, equal characters.
"""

import re
from collections import defaultdict
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from parkposet import forests
from parkposet.forests import (
    boundary_faces,
    build_cluster_poset,
    cluster_action,
    cluster_elements,
    cluster_leq,
    edges_compatible,
    enumerate_forest_faces,
    face_counts_by_size,
    face_poset,
    forest_components,
    is_forest_face,
    spanning_facets,
)
from parkposet.homology import (
    interval_catalan_weight,
    lefschetz_number,
    reduced_betti,
    top_homology_character,
    whitney_module_character,
)
from parkposet.nc import NoncrossingPartition, Permutation, kreweras_inverse, nc_leq
from parkposet.numbers import catalan
from parkposet.objects import enumerate_elements
from parkposet.parking_order import build_nc_poset, build_pp_poset, ideal
from parkposet.poset import FinitePoset


ALL_EDGES_5 = [(i, j) for i in range(1, 5) for j in range(i + 1, 6)]


class TestCompatibility:
    def test_bent_path_rejected(self):
        assert not edges_compatible((1, 2), (2, 3))
        assert not edges_compatible((2, 3), (1, 2))

    def test_crossing_rejected(self):
        assert not edges_compatible((1, 3), (2, 4))

    def test_nesting_allowed(self):
        assert edges_compatible((1, 5), (2, 3))

    def test_shared_endpoints_allowed(self):
        assert edges_compatible((1, 3), (1, 5))
        assert edges_compatible((1, 5), (3, 5))

    def test_symmetric(self):
        for e in ALL_EDGES_5:
            for f in ALL_EDGES_5:
                assert edges_compatible(e, f) == edges_compatible(f, e)


class TestMembership:
    def test_known_face_on_eight_vertices(self):
        edges = [(1, 3), (1, 8), (2, 3), (4, 7), (6, 7)]
        assert is_forest_face(8, edges)
        assert forest_components(8, edges) == NoncrossingPartition(
            8, [[1, 2, 3, 8], [4, 6, 7], [5]]
        )

    def test_empty_face(self):
        assert is_forest_face(4, [])
        assert forest_components(3, []) == NoncrossingPartition(
            3, [[1], [2], [3]]
        )

    def test_unordered_endpoints_accepted(self):
        assert is_forest_face(3, [(3, 1)])

    def test_bad_vertices_raise(self):
        with pytest.raises(ValueError):
            is_forest_face(3, [(1, 4)])
        with pytest.raises(ValueError):
            is_forest_face(3, [(2, 2)])

    def test_non_faces(self):
        assert not is_forest_face(3, [(1, 2), (2, 3)])
        assert not is_forest_face(4, [(1, 3), (2, 4)])

    @given(
        st.sets(
            st.sampled_from(ALL_EDGES_5), min_size=0, max_size=5
        )
    )
    def test_predicate_agrees_with_enumeration(self, edges):
        face_set = set(enumerate_forest_faces(5))
        assert is_forest_face(5, edges) == (frozenset(edges) in face_set)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration_is_the_membership_filter(self, n):
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        subsets = (
            frozenset(c) for r in range(len(edges) + 1) for c in combinations(edges, r)
        )
        faces = enumerate_forest_faces(n)
        assert len(set(faces)) == len(faces)
        assert set(faces) == {s for s in subsets if is_forest_face(n, s)}

    def test_enumeration_runs_no_acyclicity_test(self, monkeypatch):
        """Compatibility alone forces acyclicity, so the listing never asks
        for the forest test that `is_forest_face` keeps."""

        def refuse(n, edges):
            raise AssertionError("acyclicity tested")

        monkeypatch.setattr(forests, "_component_labels", refuse)
        assert len(enumerate_forest_faces(6)) == 394
        with pytest.raises(AssertionError, match="acyclicity tested"):
            is_forest_face(3, [(1, 3)])


class TestFaceNumbers:
    def test_totals_are_little_schroeder(self):
        totals = [len(enumerate_forest_faces(n)) for n in range(1, 8)]
        assert totals == [1, 2, 6, 22, 90, 394, 1806]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_face_counts_are_unsigned_whitney_numbers(self, n):
        whitney = build_nc_poset(n).whitney_first()
        assert face_counts_by_size(n) == [abs(w) for w in whitney]
        signs = [(-1) ** l * w for l, w in enumerate(whitney)]
        assert all(s >= 0 for s in signs)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_facets_are_catalan_many_spanning_trees(self, n):
        facets = spanning_facets(n)
        assert len(facets) == catalan(n - 1)
        for facet in facets:
            assert len(facet) == n - 1
            assert (1, n) in facet
            assert forest_components(n, facet) == NoncrossingPartition(
                n, [range(1, n + 1)]
            )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complex_is_pure(self, n):
        faces = set(enumerate_forest_faces(n))
        universe = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for face in faces:
            if len(face) < n - 1:
                assert any(
                    e not in face and face | {e} in faces for e in universe
                )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cone_over_boundary(self, n):
        faces = set(enumerate_forest_faces(n))
        apex = (1, n)
        for face in boundary_faces(n):
            assert face | {apex} in faces


class TestTopology:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_complex_contractible(self, n):
        betti = reduced_betti(face_poset(enumerate_forest_faces(n)))
        assert set(betti) == {0}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_faces_are_listed_in_face_poset_order(self, n):
        # build_cluster_poset reads face f of the listing as face_poset id f - 1.
        faces = enumerate_forest_faces(n)
        assert faces[0] == frozenset()
        assert face_poset(faces).elements == faces[1:]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_face_covers_drop_one_edge(self, n):
        """The one-edge drops are the covers that the all-pairs scan of
        inclusions with one edge more finds."""
        for faces in (enumerate_forest_faces(n), boundary_faces(n)):
            poset = face_poset(faces)
            scan = [
                (i, j)
                for i, f in enumerate(poset.elements)
                for j, g in enumerate(poset.elements)
                if len(g) == len(f) + 1 and f < g
            ]
            assert poset.cover_index_pairs() == scan

    def test_face_poset_needs_a_complex(self):
        faces = [frozenset({(1, 3), (2, 3)}), frozenset({(1, 3)})]
        missing = re.escape("face [(1, 3), (2, 3)] lacks [(2, 3)]")
        with pytest.raises(ValueError, match=missing):
            face_poset(faces)
        faces.append(frozenset({(2, 3)}))
        assert face_poset(faces).cover_index_pairs() == [(0, 1), (2, 1)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_boundary_is_a_sphere(self, n):
        betti = reduced_betti(face_poset(boundary_faces(n)))
        expected = [0] * (n - 1)
        expected[n - 2] = 1
        assert list(betti) == expected


class TestComponentMap:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_order_reversing(self, n):
        faces = enumerate_forest_faces(n)
        comp = {f: forest_components(n, f) for f in faces}
        for f in faces:
            for g in faces:
                if f < g:
                    assert nc_leq(comp[g], comp[f])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_fibers_are_catalan_products(self, n):
        fibers = defaultdict(int)
        for f in enumerate_forest_faces(n):
            fibers[forest_components(n, f)] += 1
        assert len(fibers) == catalan(n)
        for pi, count in fibers.items():
            expected = 1
            for block in pi.blocks:
                expected *= catalan(len(block) - 1)
            assert count == expected


class TestClusterPoset:
    def test_element_counts(self):
        assert len(cluster_elements(3)) == 22
        assert len(cluster_elements(4)) == 269

    @pytest.mark.parametrize("n", [3, 4])
    def test_rank_sizes_match_parking_whitney_numbers(self, n):
        poset = build_cluster_poset(n)
        sizes = poset.whitney_second()
        assert sizes == [abs(w) for w in build_pp_poset(n).whitney_first()]
        assert sizes == [whitney_module_character(n, l) for l in range(n)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_rank_is_edge_count(self, n):
        poset = build_cluster_poset(n)
        for pair in poset.elements:
            assert poset.rank_of(pair) == len(pair[0]) == pair[1].rank

    @pytest.mark.parametrize("n", [3, 4])
    def test_principal_ideals_are_boolean(self, n):
        poset = build_cluster_poset(n)
        for i in range(len(poset)):
            size = bin(poset.downset_mask(i)).count("1")
            assert size == 2 ** poset.ranks()[i]

    @pytest.mark.parametrize("n", [3, 4])
    def test_face_poset_of_a_simplicial_complex(self, n):
        poset = build_cluster_poset(n)
        atoms = [
            i for i in range(len(poset)) if poset.ranks()[i] == 1
        ]
        atom_sets = []
        for i in range(len(poset)):
            below = frozenset(a for a in atoms if poset.leq_index(a, i))
            assert len(below) == poset.ranks()[i]
            atom_sets.append(below)
        assert len(set(atom_sets)) == len(atom_sets)
        for i in range(len(poset)):
            for j in range(len(poset)):
                assert poset.leq_index(i, j) == (atom_sets[i] <= atom_sets[j])
        collected = set(atom_sets)
        for s in atom_sets:
            for size in range(len(s)):
                for sub in combinations(s, size):
                    assert frozenset(sub) in collected

    @pytest.mark.parametrize("n", [3, 4])
    def test_proper_part_homology_matches_parking_poset(self, n):
        proper = build_cluster_poset(n).without_bottom()
        betti = reduced_betti(proper)
        expected = [0] * n
        expected[n - 1] = (n - 1) ** (n - 1)
        assert list(betti) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_characters_match_parking_poset(self, n):
        poset = build_cluster_poset(n)
        sign = -1 if (n - 2) % 2 else 1
        for word in permutations(range(1, n + 1)):
            perm = Permutation(word)
            image = [poset.index[cluster_action(perm, x)] for x in poset.elements]
            value = sign * lefschetz_number(poset, image)
            assert value == top_homology_character(n, perm)

    @pytest.mark.parametrize("n", [3, 4])
    def test_action_permutes_the_poset(self, n):
        elements = set(cluster_elements(n))
        for word in permutations(range(1, n + 1)):
            perm = Permutation(word)
            image = {cluster_action(perm, pair) for pair in elements}
            assert image == elements

    @pytest.mark.parametrize("n", [3, 4])
    def test_cluster_leq_matches_poset(self, n):
        poset = build_cluster_poset(n)
        for a in poset.elements:
            for b in poset.elements:
                assert cluster_leq(a, b) == poset.leq(a, b)

    def test_builder_compares_base_poset_ids(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rich comparator called")

        monkeypatch.setattr(forests, "pp_leq", refuse)
        monkeypatch.setattr(forests, "cluster_leq", refuse)
        monkeypatch.setattr(FinitePoset, "from_leq", refuse)
        assert len(build_cluster_poset(3)) == 22

    def test_action_preserves_order(self):
        poset = build_cluster_poset(3)
        perm = Permutation((2, 3, 1))
        for a in poset.elements:
            for b in poset.elements:
                assert cluster_leq(a, b) == cluster_leq(
                    cluster_action(perm, a), cluster_action(perm, b)
                )

    @pytest.mark.parametrize("n", [3, 4])
    def test_fiber_sizes_are_face_count_products(self, n):
        face_totals = {m: len(enumerate_forest_faces(m)) for m in range(1, n + 1)}
        for elem in enumerate_elements(n):
            total = sum(
                interval_catalan_weight(x.partition) for x in ideal(elem)
            )
            expected = 1
            for block in kreweras_inverse(elem.partition).blocks:
                expected *= face_totals[len(block)]
            assert total == expected
