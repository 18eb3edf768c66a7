"""Poset kernel plus the order structure of the parking poset."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkposet import parking_order
from parkposet.forests import build_cluster_poset, enumerate_forest_faces, face_poset
from parkposet.nc import (
    NoncrossingPartition,
    Permutation,
    SetPartition,
    kreweras,
    nc_leq,
)
from parkposet.numbers import (
    catalan,
    chain_count,
    narayana,
    stirling2,
    whitney_first_kind,
)
from parkposet.objects import ParkingElement, enumerate_elements
from parkposet.parking_order import (
    TOP,
    build_nc_poset,
    build_pp_poset,
    build_pp_poset_hat,
    descend,
    ideal,
    leq_composition,
    lower_covers,
    nc_coarsenings,
    nc_lower_covers,
    nc_upper_covers,
    enumeration_ids,
    parking_words,
    partition_ids,
    permutahedron_face_poset,
    pp_action_ids,
    pp_join,
    pp_join_many,
    pp_leq,
    pp_leq_by_refinement,
    pp_meet,
    right_comb_subposet,
    upper_covers,
)
from parkposet.poset import FinitePoset


# ----- kernel on hand-built posets -----


def diamond():
    return FinitePoset("0abc1", [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def boolean(n):
    elements = list(range(2 ** n))
    covers = [
        (x, x | 1 << i)
        for x in elements
        for i in range(n)
        if not x >> i & 1
    ]
    return FinitePoset(elements, covers)


def test_diamond_structure():
    p = diamond()
    assert p.bottom() == "0" and p.top() == "1"
    assert p.ranks() == [0, 1, 1, 1, 2]
    assert p.mobius_from_bottom() == {"0": 1, "a": -1, "b": -1, "c": -1, "1": 2}
    assert p.mobius_hat() == -(1 - 3 + 2)
    assert p.count_maximal_chains() == 3
    assert p.is_lattice()


def test_boolean_lattice():
    b3 = boolean(3)
    assert b3.whitney_second() == [1, 3, 3, 1]
    assert b3.whitney_first() == [1, -3, 3, -1]
    assert b3.mobius_from_bottom()[7] == -1
    assert b3.count_maximal_chains() == 6
    assert len(list(b3.maximal_chains())) == 6
    assert b3.is_lattice()
    assert b3.leq(1, 5) and not b3.leq(1, 6)


def test_bowtie_is_not_a_lattice():
    p = FinitePoset("abcd", [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not p.is_lattice()
    assert p.join("a", "b") is None
    assert p.meet("c", "d") is None


def maximal_chains_by_recursion(poset):
    """The recursive walk over the cover lists, kept as an oracle for
    `maximal_chains`."""

    def extend(i, acc):
        acc = acc + (poset.elements[i],)
        if not poset.up[i]:
            yield acc
        for j in poset.up[i]:
            yield from extend(j, acc)

    for i in sorted(poset.minimal_indices()):
        yield from extend(i, ())


def test_maximal_chains_keep_an_isolated_point():
    p = FinitePoset("abcd", [(0, 1), (0, 2)])
    assert list(p.maximal_chains()) == [("a", "b"), ("a", "c"), ("d",)]
    assert list(FinitePoset("x", []).maximal_chains()) == [("x",)]


@pytest.mark.parametrize(
    "build",
    [
        *(lambda n=n: build_pp_poset(n) for n in range(2, 5)),
        *(lambda n=n: build_nc_poset(n) for n in range(2, 7)),
        lambda: build_cluster_poset(3),
        lambda: permutahedron_face_poset(3),
    ],
)
def test_maximal_chains_match_the_recursive_walk(build):
    poset = build()
    assert list(poset.maximal_chains()) == list(maximal_chains_by_recursion(poset))


def test_chain_multichains():
    chain = FinitePoset("abc", [(0, 1), (1, 2)])
    assert chain.zeta_count(2) == 6
    assert chain.zeta_count(3) == 10
    assert chain.zeta_count(0) == 1


def test_from_leq_on_divisibility():
    elements = list(range(1, 13))
    p = FinitePoset.from_leq(
        elements, lambda i, j: elements[j] % elements[i] == 0
    )
    assert p.leq(3, 12) and not p.leq(3, 8)
    assert set(p.up[p.index[1]]) == {p.index[x] for x in (2, 3, 5, 7, 11)}
    assert p.mobius_from_bottom()[12] == 0
    assert p.mobius_from_bottom()[6] == 1


def test_rank_validation_rejects_non_graded():
    p = FinitePoset("abc", [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        p.ranks()


def test_cycle_rejected():
    with pytest.raises(ValueError):
        FinitePoset("ab", [(0, 1), (1, 0)])


@pytest.mark.parametrize(
    "elements,covers",
    [
        ("abc", [(1, 1)]),
        ("abc", [(0, 1), (1, 2), (2, 0)]),
        ("abc", [(-1, 0)]),
        ("abc", [(0, 3)]),
    ],
    ids=["self-cover", "cycle", "id-minus-one", "id-m"],
)
def test_kernel_input_rejected(elements, covers):
    # (-1, 0) would index from the end of the list and build a poset
    with pytest.raises(ValueError):
        FinitePoset(elements, covers)


def _with_a_repeat(mp, name, build):
    """build(3) with parking_order.<name> listing its first item twice."""
    listing = getattr(parking_order, name)
    mp.setattr(parking_order, name, lambda n: [*listing(n), next(iter(listing(n)))])
    return build.__wrapped__(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda mp: FinitePoset("aab", [(0, 2)]).index,
        lambda mp: FinitePoset.from_down_masks("aab", [1, 2, 5]).index,
        lambda mp: FinitePoset.from_leq("aab", lambda i, j: False),
        lambda mp: _with_a_repeat(mp, "enumerate_noncrossing", build_nc_poset),
        lambda mp: _with_a_repeat(
            mp, "ordered_set_compositions", permutahedron_face_poset
        ),
        lambda mp: face_poset([frozenset({(1, 2)}), frozenset({(1, 2)})]),
    ],
    ids=[
        "first-index",
        "from_down_masks-first-index",
        "from_leq",
        "build_nc_poset",
        "permutahedron_face_poset",
        "face_poset",
    ],
)
def test_duplicate_elements_rejected(build, monkeypatch):
    """Builders that hash their elements reject a duplicate at
    construction; any other poset rejects it when its index is first
    built."""
    with pytest.raises(ValueError, match="duplicate elements"):
        build(monkeypatch)


def test_from_down_masks_hashes_no_element():
    class Unhashable:
        def __hash__(self):
            raise AssertionError("element hashed")

    poset = FinitePoset.from_down_masks([Unhashable(), Unhashable()], [1, 3])
    assert poset.cover_index_pairs() == [(0, 1)]


# ----- the cover store -----


def test_repeated_cover_kept_once():
    poset = FinitePoset("abc", [(1, 2), (0, 1), (1, 2), (0, 1), (0, 1)])
    assert (poset.up, poset.down) == ([[1], [2], []], [[], [0], [1]])
    assert poset.cover_index_pairs() == [(0, 1), (1, 2)]


def test_covers_from_a_generator():
    pairs = diamond().cover_index_pairs()
    poset = FinitePoset("0abc1", (pair for pair in reversed(pairs)))
    assert poset.cover_index_pairs() == pairs
    assert poset.down[4] == [1, 2, 3]


COVER_STORES = {
    **{f"pp({n})": lambda n=n: build_pp_poset(n) for n in range(1, 6)},
    "NC_6": lambda: build_nc_poset(6),
    "faces(5)": lambda: face_poset(enumerate_forest_faces(5)),
}


@pytest.mark.parametrize("name", COVER_STORES)
def test_cover_lists_are_sorted(name):
    poset = COVER_STORES[name]()
    for near in (*poset.up, *poset.down):
        assert near == sorted(set(near))


@pytest.mark.parametrize("name", COVER_STORES)
def test_cover_index_pairs_are_the_sorted_pairs(name):
    poset = COVER_STORES[name]()
    from_down = {(j, i) for i, below in enumerate(poset.down) for j in below}
    assert poset.cover_index_pairs() == sorted(from_down)


def test_parking_build_peak_near_what_it_holds():
    """A cold build_pp_poset(5), its listing and NC_5 warm, streams its
    covers into the cover lists, so its traced peak stays near what the
    poset holds (3.15 times as much when the covers were listed first
    and gathered in per-id sets)."""
    parking_order._parking_listing(5)
    build_nc_poset(5)
    tracemalloc.start()
    try:
        poset = build_pp_poset.__wrapped__(5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poset) == 1296
    assert peak <= 1.5 * held


def test_interval_and_induced():
    b3 = boolean(3)
    inter = b3.interval(0, 3)
    assert sorted(inter.elements) == [0, 1, 2, 3]
    assert inter.count_maximal_chains() == 2
    sub = b3.induced([0, 3, 5, 7])
    assert sub.leq(0, 7) and sub.leq(3, 7)
    assert set(sub.up[sub.index[0]]) == {sub.index[3], sub.index[5]}


def test_without_bottom_and_top():
    b3 = boolean(3)
    proper = b3.without_bottom().without_top()
    assert len(proper) == 6
    assert proper.whitney_second() == [3, 3]


def test_serialization_smoke():
    p = diamond()
    data = p.to_json(n=0)
    assert data["covers"] == [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]
    dot = p.to_dot()
    assert "rankdir=BT" in dot and "v0 -> v1" in dot


# ----- noncrossing partition lattice -----


@pytest.mark.parametrize("n", range(1, 6))
def test_nc_covers_match_leq_oracle(n):
    p = build_nc_poset(n)
    q = FinitePoset.from_leq(
        p.elements, lambda i, j: nc_leq(p.elements[i], p.elements[j])
    )
    assert sorted(p.cover_index_pairs()) == sorted(q.cover_index_pairs())


@pytest.mark.parametrize("n", range(1, 9))
def test_nc_lattice_and_rank(n):
    p = build_nc_poset(n)
    assert p.whitney_second() == [narayana(n, r + 1) for r in range(n)]
    if n > 5:
        return  # rank sizes alone: the lattice check is quadratic
    assert p.is_lattice()
    assert p.whitney_second() == [
        sum(1 for x in p.elements if len(x) == r + 1) for r in range(n)
    ]
    assert p.bottom() == SetPartition.bottom(n)
    assert p.top() == SetPartition.top(n)


@pytest.mark.parametrize("n,count", [(3, 3), (4, 16), (5, 125)])
def test_nc_maximal_chain_count(n, count):
    assert build_nc_poset(n).count_maximal_chains() == count


def test_nc_mobius_product_formula():
    poset = build_nc_poset(5)
    mu = poset.mobius_from_bottom()
    for p in poset.elements:
        expected = math.prod(
            (-1) ** (len(b) - 1) * catalan(len(b) - 1) for b in kreweras(p).blocks
        )
        assert mu[p] == expected


def test_nc_cover_generators_agree():
    for n in (3, 4):
        poset = build_nc_poset(n)
        for p in poset.elements:
            ups = {q for q in nc_upper_covers(p)}
            downs = {q for q in nc_lower_covers(p)}
            assert ups == {x for x in poset.elements
                           if poset.leq(p, x) and len(x) == len(p) + 1}
            assert downs == {x for x in poset.elements
                             if poset.leq(x, p) and len(x) == len(p) - 1}


def test_nc_coarsenings_is_principal_ideal():
    poset = build_nc_poset(4)
    for p in poset.elements:
        assert nc_coarsenings(p) == {x for x in poset.elements if poset.leq(x, p)}


# ----- parking poset -----


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pp_leq_routes_agree_exhaustively(n):
    poset = build_pp_poset(n)
    for a in poset.elements:
        for b in poset.elements:
            assert pp_leq(a, b) == pp_leq_by_refinement(a, b) == poset.leq(a, b)


@given(st.integers(0, 124), st.integers(0, 124))
def test_pp_leq_routes_agree_sampled_n4(i, j):
    poset = build_pp_poset(4)
    a, b = poset.elements[i], poset.elements[j]
    assert pp_leq(a, b) == pp_leq_by_refinement(a, b) == poset.leq(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pp_covers_match_leq_oracle(n):
    poset = build_pp_poset(n)
    elements = poset.elements
    oracle = FinitePoset.from_leq(
        elements, lambda i, j: pp_leq(elements[i], elements[j])
    )
    assert sorted(poset.cover_index_pairs()) == sorted(oracle.cover_index_pairs())


def test_cover_counts_of_bottom():
    assert len(upper_covers(ParkingElement.bottom(3))) == 9
    assert len(upper_covers(ParkingElement.bottom(5))) == 75


@pytest.mark.parametrize("n", range(1, 6))
def test_lifted_covers_match_split_covers(n):
    poset = build_pp_poset(n)
    split = [
        (i, poset.index[b])
        for i, a in enumerate(poset.elements)
        for b in upper_covers(a)
    ]
    assert sorted(poset.cover_index_pairs()) == sorted(split)


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_ids_name_each_partition(n):
    nc = build_nc_poset(n)
    ids = partition_ids(n)
    assert [nc.elements[p] for p in ids] == [
        e.partition for e in build_pp_poset(n).elements
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_ids_follow_the_enumeration(n):
    pp = build_pp_poset(n)
    assert list(enumeration_ids(n)) == [pp.index[e] for e in enumerate_elements(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_listing_follows_the_sorted_enumeration(n):
    """The words of the listing are those of enumerate_elements(n) in
    sort_key order, and a cold build's lazy elements are those elements."""
    listed = sorted(enumerate_elements(n), key=lambda e: e.sort_key)
    assert parking_words(n) == tuple(e.word for e in listed)
    elements = build_pp_poset.__wrapped__(n).elements
    assert list(elements) == listed
    assert all(elements[i] is x for i, x in enumerate(elements))


@pytest.mark.parametrize("n", range(1, 6))
def test_listing_looks_up_each_partition_once(n, monkeypatch):
    """A cold listing hashes each partition once, for its whole run of
    enumerate_elements, which runs partition by partition."""
    build_nc_poset(n)
    hashed = []
    plain = SetPartition.__hash__

    def counted(self):
        hashed.append(self)
        return plain(self)

    parking_order._parking_listing.cache_clear()
    monkeypatch.setattr(SetPartition, "__hash__", counted)
    parking_order._parking_listing(n)
    assert len(hashed) == catalan(n)


def test_action_ids_read_no_word(monkeypatch):
    perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    expected = [pp_action_ids(4, perm) for perm in perms]

    def refuse(self):
        raise AssertionError("word read")

    monkeypatch.setattr(ParkingElement, "word", property(refuse))
    assert [pp_action_ids(4, perm) for perm in perms] == expected


def test_builder_lifts_nc_covers(monkeypatch):
    def refuse(*args):
        raise AssertionError("rich cover built")

    for name in ("upper_covers", "element_from_block_labels"):
        monkeypatch.setattr(parking_order, name, refuse)
    build_pp_poset.cache_clear()
    try:
        assert len(build_pp_poset(4)) == 125
    finally:
        build_pp_poset.cache_clear()


def test_one_partition_per_split(monkeypatch):
    calls = []

    class Counted(NoncrossingPartition):
        __slots__ = ()

        def __init__(self, n, blocks):
            calls.append(n)
            super().__init__(n, blocks)

    for elem in build_pp_poset(4).elements:
        splits = len(nc_upper_covers(elem.partition))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(parking_order, "NoncrossingPartition", Counted)
            upper_covers(elem)
        assert len(calls) == splits


def split_route_upper_covers(elem):
    """Upper covers by the split route, kept here as the reference for
    upper_covers: split a block into a run without its minimum and the
    rest, and hand each way of choosing the run's labels to from_triple."""
    out = []
    blocks = elem.partition.blocks
    labels = elem.labels
    for idx, (block, lab) in enumerate(zip(blocks, labels)):
        others = blocks[:idx] + blocks[idx + 1 :]
        for i in range(1, len(block)):
            for j in range(i, len(block)):
                b2 = block[i : j + 1]
                b1 = block[:i] + block[j + 1 :]
                split = NoncrossingPartition(elem.n, others + (b1, b2))
                at = split.blocks.index(b2)
                for s2 in itertools.combinations(lab, len(b2)):
                    split_labels = list(labels)
                    split_labels[idx] = [x for x in lab if x not in s2]
                    split_labels.insert(at, s2)
                    out.append(ParkingElement.from_triple(split, split_labels))
    return out


def random_parking_word(rng, n):
    """A uniform parking word: of the n + 1 cyclic shifts of a word over
    Z/(n + 1), exactly one parks (Pollak)."""
    word = [rng.randrange(n + 1) for _ in range(n)]
    for shift in range(n + 1):
        shifted = [(w + shift) % (n + 1) + 1 for w in word]
        if all(v <= i + 1 for i, v in enumerate(sorted(shifted))):
            return shifted
    raise AssertionError("no cyclic shift parks")


def cover_oracle_elements():
    yield from (e for n in range(1, 6) for e in enumerate_elements(n))
    rng = random.Random(20260)
    for n in (6, 7, 8):
        for _ in range(150):
            yield ParkingElement.from_word(random_parking_word(rng, n))


def test_covers_match_descent_and_split_routes_in_order():
    for elem in cover_oracle_elements():
        downs = [descend(elem, q) for q in nc_lower_covers(elem.partition)]
        ups = split_route_upper_covers(elem)
        for covers, expected in ((lower_covers(elem), downs), (upper_covers(elem), ups)):
            assert covers == expected
            # The kept parking word agrees with the one read off sigma.
            assert [c.word for c in covers] == [
                ParkingElement(c.partition, c.sigma).word for c in expected
            ]


def test_one_partition_per_merge(monkeypatch):
    calls = []

    class Counted(NoncrossingPartition):
        __slots__ = ()

        def __init__(self, n, blocks):
            calls.append(n)
            super().__init__(n, blocks)

    for elem in cover_oracle_elements():
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(parking_order, "NoncrossingPartition", Counted)
            covers = lower_covers(elem)
        assert len(calls) == len(covers)


def test_upper_and_lower_covers_are_inverse_relations():
    for n in range(1, 5):
        poset = build_pp_poset(n)
        ups = {(a, b) for a in poset.elements for b in upper_covers(a)}
        downs = {(a, b) for b in poset.elements for a in lower_covers(b)}
        assert ups == downs


@pytest.mark.parametrize("n", range(1, 6))
def test_rank_sizes_match_closed_form(n):
    poset = build_pp_poset(n)
    assert poset.whitney_second() == [chain_count(n, 1, l) for l in range(n)]
    assert len(poset) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_mobius_hat_formula(n):
    assert build_pp_poset(n).mobius_hat() == (-1) ** n * (n - 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_whitney_first_closed_form(n):
    poset = build_pp_poset(n)
    expected = [whitney_first_kind(n, l) for l in range(n)]
    assert poset.whitney_first() == expected
    assert sum(expected) == -poset.mobius_hat() if n >= 2 else True


def test_mobius_hashes_no_element(monkeypatch):
    poset = build_pp_poset(4)

    def refuse(self):
        raise AssertionError("rich element hashed on the Mobius path")

    monkeypatch.setattr(ParkingElement, "__hash__", refuse)
    assert poset.whitney_first() == [whitney_first_kind(4, l) for l in range(4)]
    assert poset.mobius_hat() == 27


def test_mobius_needs_one_minimal_element():
    with pytest.raises(ValueError, match="2 minimal elements"):
        FinitePoset("ab", []).mobius_hat()


@pytest.mark.parametrize("n,count", [(2, 2), (3, 18), (4, 384)])
def test_pp_maximal_chain_count(n, count):
    assert build_pp_poset(n).count_maximal_chains() == count


def test_pp_maximal_elements_are_permutations():
    poset = build_pp_poset(4)
    tops = [poset.elements[i] for i in poset.maximal_indices()]
    assert len(tops) == math.factorial(4)
    assert all(t.is_maximal() for t in tops)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_join_meet_against_poset_oracle(n):
    poset = build_pp_poset(n)
    hat = build_pp_poset_hat(n)
    for a in poset.elements:
        for b in poset.elements:
            j = pp_join(a, b)
            expected = hat.join(a, b)
            if j is TOP:
                assert expected is TOP
            else:
                assert j == expected
            assert poset.join(a, b) == (None if j is TOP else j)
            assert pp_meet(a, b) == poset.meet(a, b)


def test_join_against_poset_oracle_n4():
    poset = build_pp_poset(4)
    hat = build_pp_poset_hat(4)
    for a in poset.elements:
        for b in poset.elements:
            j = pp_join(a, b)
            assert j == hat.join(a, b)
            assert poset.join(a, b) == (None if j is TOP else j)
            assert pp_meet(a, b) == poset.meet(a, b)


def meet_by_ideal(a, b):
    """The meet as the join of every common lower bound: the ideal of a,
    filtered by pp_leq against b, folded by pp_join_many."""
    return pp_join_many(x for x in ideal(a) if pp_leq(x, b))


@pytest.mark.parametrize("n", [5, 6])
def test_meet_matches_ideal_oracle(n):
    rng = random.Random(n)
    elements = list(enumerate_elements(n))
    for _ in range(500):
        a, b = rng.choice(elements), rng.choice(elements)
        assert pp_meet(a, b) == meet_by_ideal(a, b)


def unique_minimal(poset, mask, below):
    """The unique minimal element of a mask under below(u, v), or None."""
    members = [u for u in range(len(poset)) if mask >> u & 1]
    minimal = [
        u for u in members if not any(v != u and below(v, u) for v in members)
    ]
    return minimal[0] if len(minimal) == 1 else None


@given(st.sets(st.integers(0, 15), min_size=1))
def test_join_meet_index_are_unique_extreme_bounds(keep):
    poset = boolean(4).induced(keep)
    for i in range(len(poset)):
        for j in range(len(poset)):
            ups = poset.upset_mask(i) & poset.upset_mask(j)
            downs = poset.downset_mask(i) & poset.downset_mask(j)
            assert poset.join_index(i, j) == unique_minimal(poset, ups, poset.leq_index)
            assert poset.meet_index(i, j) == unique_minimal(
                poset, downs, lambda u, v: poset.leq_index(v, u)
            )


def cover_pairs(poset):
    return {(poset.elements[i], poset.elements[j]) for i, j in poset.cover_index_pairs()}


@given(st.lists(st.integers(0, 15), min_size=1, unique=True))
def test_from_down_masks_matches_from_leq(keep):
    # keep lists subsets of {0, 1, 2, 3} as bit masks, in any order
    def below(a, b):
        return a & b == a

    m = len(keep)
    down = [
        sum(1 << j for j in range(m) if below(keep[j], keep[i])) for i in range(m)
    ]
    poset = FinitePoset.from_down_masks(keep, down)
    oracle = FinitePoset.from_leq(keep, lambda i, j: below(keep[i], keep[j]))
    covers = {
        (a, b)
        for a in keep
        for b in keep
        if a != b
        and below(a, b)
        and not any(below(a, c) and below(c, b) for c in keep if c not in (a, b))
    }
    assert cover_pairs(poset) == cover_pairs(oracle) == covers
    assert cover_pairs(boolean(4).induced(keep)) == covers


@given(st.integers(0, 124), st.integers(0, 124))
def test_join_meet_sampled_n4(i, j):
    poset = build_pp_poset(4)
    a, b = poset.elements[i], poset.elements[j]
    jn = pp_join(a, b)
    if jn is not TOP:
        assert pp_leq(a, jn) and pp_leq(b, jn)
        for c in upper_covers(a) + [a]:
            if pp_leq(a, c) and pp_leq(b, c):
                assert pp_leq(jn, c)
    mt = pp_meet(a, b)
    assert pp_leq(mt, a) and pp_leq(mt, b)
    for c in lower_covers(a) + [a]:
        if pp_leq(c, a) and pp_leq(c, b):
            assert pp_leq(c, mt)


@pytest.mark.parametrize("n", [2, 3])
def test_hat_poset_is_lattice(n):
    assert build_pp_poset_hat(n).is_lattice()


def test_join_associative_sampled():
    poset = build_pp_poset(3)
    es = poset.elements
    for a in es[::3]:
        for b in es[::4]:
            for c in es[::5]:
                x = pp_join_many([a, b, c])
                y = pp_join_many([c, a, b])
                assert (x is TOP and y is TOP) or x == y


# ----- descent and ideals -----


def test_descend_uniqueness_against_filter():
    poset = build_pp_poset(4)
    for e in poset.elements[::7]:
        below = {x for x in poset.elements if poset.leq(x, e)}
        assert set(ideal(e)) == below


def test_ideal_of_maximal_element_has_catalan_size():
    for n in (3, 4):
        top = ParkingElement.from_permutation_top(Permutation.identity(n))
        assert len(ideal(top)) == catalan(n)


def test_descend_requires_coarsening():
    e = ParkingElement.from_word((1, 1, 3))
    with pytest.raises(ValueError):
        descend(e, NoncrossingPartition(3, [[1, 3], [2]]))
    # a crossing coarsening of the all-singletons partition is no element
    top = ParkingElement.from_permutation_top(Permutation.identity(4))
    with pytest.raises(ValueError, match="crossing"):
        descend(top, SetPartition(4, [[1, 3], [2, 4]]))
    merged = descend(e, NoncrossingPartition.bottom(3))
    assert merged == ParkingElement.bottom(3)


# ----- permutahedron face poset and right combs -----


@pytest.mark.parametrize("n,size", [(1, 1), (2, 3), (3, 13), (4, 75)])
def test_face_poset_sizes(n, size):
    poset = permutahedron_face_poset(n)
    assert len(poset) == size
    assert poset.whitney_second() == [
        math.factorial(k + 1) * stirling2(n, k + 1) for k in range(n)
    ]


def test_leq_composition_examples():
    c = (((1, 2, 3),))
    d = ((2,), (1, 3))
    wrong_order = ((1, 3), (2,))
    assert leq_composition(c, d)
    assert leq_composition(d, d)
    assert not leq_composition(d, wrong_order)
    assert leq_composition(((1, 3), (2, 4)), ((1, 3), (2,), (4,)))
    assert leq_composition(((1, 3), (2, 4)), ((3,), (1,), (4,), (2,)))
    assert not leq_composition(((1, 3), (2, 4)), ((1, 2), (3,), (4,)))
    assert not leq_composition(((1, 2), (3,)), ((1, 2),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_right_comb_subposet_isomorphic_to_face_poset(n):
    sub = right_comb_subposet(n)
    face = permutahedron_face_poset(n)
    bridge = {e: e.to_composition() for e in sub.elements}
    assert sorted(bridge.values()) == sorted(face.elements)
    for a in sub.elements:
        for b in sub.elements:
            assert sub.leq(a, b) == leq_composition(bridge[a], bridge[b])
            assert sub.leq(a, b) == face.leq(bridge[a], bridge[b])


def test_face_poset_covers_merge_adjacent():
    face = permutahedron_face_poset(3)
    d = ((2,), (1,), (3,))
    below = {
        face.elements[i]
        for i, j in face.cover_index_pairs()
        if face.elements[j] == d
    }
    assert below == {((1, 2), (3,)), ((2,), (1, 3))}
