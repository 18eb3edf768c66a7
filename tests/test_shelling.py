"""Tests for the chain order on the bounded parking poset, the shelling
condition, and the cover statistics supporting it."""

import itertools
import math
import random
import sys
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkposet import parking_order, shelling
from parkposet.homology import parking_betti
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
from parkposet.poset import FinitePoset
from parkposet.shelling import (
    _chains,
    _check_shelling,
    _code_jump,
    _cover_order,
    _hat_cover_order,
    _parking_key,
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
    chains = sorted_maximal_chains(3)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_homology_facets(n):
    # the chains with every interior position in D(p) span the top
    # homology of the proper part
    assert verify_shelling(n).facets == (n - 1) ** (n - 1) == parking_betti(n)[-1]


def test_shelling_verified_six():
    report = verify_shelling(6)
    assert report.ok
    assert (report.num_chains, report.facets) == (933120, 3125)


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


def fork_by_definition(n, order):
    """The fork condition of `verify_fork_lemma` read off its definition
    on the bounded poset, with ``leq_index`` and ``join_index`` only: for
    x, y' before y in ``order`` at x, and z covering y, in the parking
    poset, either some y'' <= z precedes y at x (a replaced middle), or
    some z' covering y with z' <= join(y', z) precedes z at y (a raised
    top).  Returns the counts (checked, replaced_middle, raised_top), the
    violations (x, y, y', z) and the set of (x, y, z) with no such y''."""
    hat = build_pp_poset_hat(n)
    counts, violations, minimal = [0, 0, 0], set(), set()
    for x, ups in enumerate(order):
        for k, y in enumerate(ups):
            for h, z in enumerate(order[y]):
                middle = any(hat.leq_index(w, z) for w in ups[:k])
                if not middle:
                    minimal.add((x, y, z))
                for yp in ups[:k]:
                    counts[0] += 1
                    join = hat.join_index(yp, z)
                    if middle:
                        counts[1] += 1
                    elif any(hat.leq_index(zp, join) for zp in order[y][:h]):
                        counts[2] += 1
                    else:
                        violations.add((x, y, yp, z))
    return tuple(counts), violations, minimal


def fork_orders(n, seeds):
    """The true cover order of pp(n), then one shuffled copy per seed."""
    true = shelling._parking_cover_order(n)
    orders = [true]
    for seed in seeds:
        rng = random.Random(seed)
        orders.append([rng.sample(ups, len(ups)) for ups in true])
    return orders


@pytest.mark.parametrize("n,seeds", [(2, [0]), (3, [0, 1, 2]), (4, [0, 1])])
def test_fork_matches_definition(n, seeds):
    poset = build_pp_poset(n)
    reports = []
    for order in fork_orders(n, seeds):
        counts, violations, _ = fork_by_definition(n, order)
        report = shelling._verify_fork(n, poset, order)
        assert (report.checked, report.replaced_middle, report.raised_top) == counts
        found = [tuple(map(poset.index.__getitem__, v)) for v in report.violations]
        assert len(found) == len(set(found))
        assert set(found) == violations
        reports.append(report)
    # the true order passes; from n = 3 on, some shuffled order fails
    assert reports[0].ok
    assert any(not report.ok for report in reports[1:]) == (n >= 3)


@pytest.mark.parametrize("n,seeds", [(2, [0]), (3, [0, 1, 2]), (4, [0, 1])])
def test_minimal_steps_match_definition(monkeypatch, n, seeds):
    poset = build_pp_poset(n)
    for order in fork_orders(n, seeds):
        _, _, minimal = fork_by_definition(n, order)
        steps = list(shelling._minimal_steps(poset, order))
        assert len(steps) == len(set(steps))
        assert set(steps) == minimal
        # the check counts exactly these, on any order; a constant jump
        # keeps it from stopping at a drop
        with monkeypatch.context() as patch:
            patch.setattr(shelling, "_parking_cover_order", lambda n: order)
            patch.setattr(shelling, "_code_jump", lambda low, high: 0)
            assert check_minimal_jump_grows(n) == len(minimal)


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
    assert sorted_maximal_chains(n) == reference_chain_order(poset)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_id_keys_equal_cover_key(n):
    poset = build_pp_poset(n)
    elements = poset.elements
    key = _parking_key(n)
    for i, ups in enumerate(poset.up):
        for j in ups:
            assert key(i, j) == cover_key(elements[i], elements[j])


def shelling_by_grouping(poset, order):
    """The shelling check by sorting and grouping, as an oracle: all
    maximal chains sorted on the positions of their covers in ``order``,
    D(p) from an earlier-swap test on each wedge, then one pass over the
    sorted chains per distinct D(p), reporting each p whose projection to
    D(p) already appeared, with the first chain that had it.  Returns the
    sorted chains, their descent sets and the violations."""
    position = {(i, j): t for i, ups in enumerate(order) for t, j in enumerate(ups)}
    index = poset.index
    chains = [tuple(index[e] for e in chain) for chain in poset.maximal_chains()]
    chains.sort(key=lambda c: [position[edge] for edge in zip(c, c[1:])])

    def earlier_swap(x, y, z):
        return any(
            position[(x, w)] < position[(x, y)] and poset.leq_index(w, z)
            for w in poset.up[x]
        )

    descent_sets = [
        tuple(
            pos for pos in range(1, len(c) - 1) if earlier_swap(*c[pos - 1 : pos + 2])
        )
        for c in chains
    ]
    violations = []
    for positions in set(descent_sets):
        first_seen = {}
        for rank, chain in enumerate(chains):
            projection = tuple(chain[pos] for pos in positions)
            earlier = first_seen.setdefault(projection, rank)
            if descent_sets[rank] == positions and earlier < rank:
                violations.append((chains[earlier], chain))
    return chains, descent_sets, violations


def assert_matches_grouping(n, order):
    # the oracle reads the bounded poset, the check the parking poset with
    # the sentinel top id m
    hat = build_pp_poset_hat(n)
    chains, descent_sets, violations = shelling_by_grouping(hat, order)
    report = _check_shelling(n, build_pp_poset(n), order)
    assert list(_chains(order)) == chains
    assert report.num_chains == len(chains)
    assert report.facets == descent_sets.count(tuple(range(1, n)))
    assert len(report.violations) == len(set(report.violations))
    assert set(report.violations) == set(violations)
    return report


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shelling_matches_grouping(n):
    assert assert_matches_grouping(n, _hat_cover_order(n)).ok


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 0)])
def test_shelling_matches_grouping_on_random_orders(n, seed):
    # any injective cover order gives a chain order; most are no shelling
    rng = random.Random(seed)
    order = [rng.sample(ups, len(ups)) for ups in _hat_cover_order(n)]
    report = assert_matches_grouping(n, order)
    assert not report.ok


@pytest.fixture
def fresh_parking_keys():
    """Clear the cached parking codes and cover orders around a test that
    counts the calls building them."""
    shelling._parking_codes.cache_clear()
    shelling._parking_cover_order.cache_clear()
    yield
    shelling._parking_codes.cache_clear()
    shelling._parking_cover_order.cache_clear()


@pytest.mark.parametrize(
    "check,name,n,calls",
    [
        (verify_shelling, "cover_key", 3, 0),
        (verify_shelling, "transposition_label", 3, 6),
        (verify_fork_lemma, "cover_key", 3, 0),
        (verify_fork_lemma, "transposition_label", 3, 6),
        (verify_nc_fork_lemma, "transposition_label", 4, 28),
    ],
)
def test_one_key_per_cover(monkeypatch, fresh_parking_keys, check, name, n, calls):
    # the cover order is read on ids: no cover_key call, and one
    # transposition_label per cover of NC_n (6 at n = 3, 28 at n = 4)
    original = getattr(shelling, name)
    seen = []

    def counted(lower, upper):
        seen.append((lower, upper))
        return original(lower, upper)

    monkeypatch.setattr(shelling, name, counted)
    assert check(n).ok
    assert len(seen) == len(set(seen)) == calls
    if name == "transposition_label":
        assert calls == sum(map(len, build_nc_poset(n).up))


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


def test_checks_read_joins_from_the_parking_poset(monkeypatch):
    # join_index of build_pp_poset(n) gives every proper join, and None
    # where the bounded poset's join is its top; the chain walk reads the
    # parking poset with a sentinel top.  So no check builds the bounded
    # poset, through any binding of its builder.
    original = parking_order.build_pp_poset_hat

    def refuse(n):
        raise AssertionError("bounded poset built")

    modules = [m for name, m in sys.modules.items() if name.startswith("parkposet")]
    for module in modules:
        if getattr(module, "build_pp_poset_hat", None) is original:
            monkeypatch.setattr(module, "build_pp_poset_hat", refuse)
    rep = verify_fork_lemma(4)
    assert (rep.checked, rep.replaced_middle, rep.raised_top) == (3798, 3122, 676)
    for check, count in SUPPORT_COUNTS_4:
        assert check(4) == count
    report = verify_shelling(3)
    assert (report.ok, report.num_chains, report.facets) == (True, 18, 4)
    assert len(sorted_maximal_chains(3)) == 18


# the two routines that compute a code: from a label permutation, and
# from a parking word and its partition's blocks
CODE_ROUTES = ("permutation_code", "_word_code")


@pytest.mark.parametrize("n", range(1, 7))
def test_parking_codes_are_element_codes(n):
    """The codes read from words and partition ids are the element codes
    of a cold build's elements."""
    elements = build_pp_poset.__wrapped__(n).elements
    assert shelling._parking_codes(n) == list(map(element_code, elements))


@pytest.mark.parametrize("check", [check for check, _ in SUPPORT_COUNTS_4])
def test_one_code_per_element(monkeypatch, fresh_parking_keys, check):
    originals = {name: getattr(shelling, name) for name in CODE_ROUTES}
    calls = []

    def counted(original):
        def call(*args):
            calls.append(args)
            return original(*args)

        return call

    for name, original in originals.items():
        monkeypatch.setattr(shelling, name, counted(original))
    check(4)
    # one code per element of the poset on [4], by either route (label
    # permutations repeat), also where the check reads the cover order
    assert len(calls) == 125


@pytest.mark.parametrize(
    "check,count", [(check_split_diamond, 48), (check_same_block_jump_bound, 3360)]
)
def test_split_checks_build_no_element(monkeypatch, check, count):
    """On a cold pp(4) the split-block checks read each split block from
    an NC_4 cover and each rank by id: no ParkingElement is built."""

    def refuse(*args):
        raise AssertionError("ParkingElement built")

    def cold():
        parking_order._parking_listing.cache_clear()
        build_pp_poset.cache_clear()

    cold()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(ParkingElement, "__init__", refuse)
            assert check(4) == count
    finally:
        cold()


@pytest.mark.parametrize("n", range(2, 6))
def test_nc_split_is_split_block(n):
    """The block read from the NC_n cover under each cover of pp(n), the
    lower block holding its transposition label, is split_block of the
    two elements; so the pairs of covers that the split checks visit are
    those that split_block sorts into the same or different blocks."""
    poset, nc = build_pp_poset(n), build_nc_poset(n)
    pid, labels = parking_order.partition_ids(n), shelling._nc_labels(nc)
    elements = poset.elements
    split = {}
    for x, ups in enumerate(poset.up):
        for s in ups:
            lower = nc.elements[pid[x]]
            read = lower.block_of(labels[pid[x], pid[s]][0])
            split[x, s] = split_block(elements[x], elements[s])
            assert frozenset(read) == split[x, s]
    for same in (True, False):
        expected = [
            (x, s, t)
            for x, ups in enumerate(poset.up)
            for s, t in itertools.combinations(ups, 2)
            if (split[x, s] == split[x, t]) == same
        ]
        visited = shelling._cover_pairs(n, same_block=same)
        assert [(x, s, t) for x, s, t, _ in visited] == expected


def test_one_parking_key_table_per_n(monkeypatch, fresh_parking_keys):
    calls = {"cover_key": [], "transposition_label": []}
    calls.update((name, []) for name in CODE_ROUTES)

    def counted(original, seen):
        def call(*args):
            seen.append(args)
            return original(*args)

        return call

    for name, seen in calls.items():
        monkeypatch.setattr(shelling, name, counted(getattr(shelling, name), seen))
    assert verify_shelling(4).ok
    assert verify_fork_lemma(4).ok
    assert check_minimal_jump_grows(4) == 216
    # one cover order on [4] serves all three: one code per element, one
    # label per cover of NC_4, and no key built from two elements
    assert len(calls["cover_key"]) == 0
    assert sum(len(calls[name]) for name in CODE_ROUTES) == 125
    assert len(calls["transposition_label"]) == 28
    assert len(set(calls["transposition_label"])) == 28


def test_tied_cover_keys_rejected():
    with pytest.raises(ValueError, match="tied cover keys above element 0"):
        _cover_order(build_nc_poset(3), lambda lower, upper: 0)


def test_nc_el_property():
    # the number of strictly comparable pairs in the noncrossing lattice
    # is the Fuss-Catalan count binom(3n, n)/(2n + 1) minus the diagonal
    assert check_nc_el_labeling(2) == 1
    assert check_nc_el_labeling(3) == 7
    assert check_nc_el_labeling(4) == 41
    assert check_nc_el_labeling(5) == 231
    assert check_nc_el_labeling(6) == 1296


def test_nc_el_check_fails_on_constant_labels(monkeypatch):
    def constant(nc):
        return {(a, b): (1, 2) for a, ups in enumerate(nc.up) for b in ups}

    monkeypatch.setattr(shelling, "_nc_labels", constant)
    with pytest.raises(ValueError, match="EL property fails"):
        check_nc_el_labeling(3)


def test_nc_el_check_walks_intervals_on_ids(monkeypatch):
    """The check walks the maximal chains of every interval [a, b], as
    `interval` and `maximal_chains` give them, and builds no poset."""
    nc = build_nc_poset(4)
    built, walked = [], []
    init = FinitePoset.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy(order, start=0):
        for chain in _chains(order, start):
            walked.append(chain)
            yield chain

    monkeypatch.setattr(FinitePoset, "__init__", counted)
    monkeypatch.setattr(shelling, "_chains", spy)
    assert check_nc_el_labeling(4) == 41
    assert built == []
    monkeypatch.undo()
    expected = [
        tuple(map(nc.index.__getitem__, chain))
        for a in nc.elements
        for b in nc.elements
        if a != b and nc.leq(a, b)
        for chain in nc.interval(a, b).maximal_chains()
    ]
    assert sorted(walked) == sorted(expected)


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


def test_equal_code_join_needs_a_proper_join(monkeypatch):
    # with one code for every element, two maximal elements share a code
    # but have no common upper bound: join_index gives None, which fails
    monkeypatch.setattr(
        shelling, "_parking_codes", lambda n: [(0,) * n] * len(build_pp_poset(n))
    )
    with pytest.raises(ValueError, match="breaks the code"):
        check_equal_code_join(3)


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
