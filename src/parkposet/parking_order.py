"""Order structure of the parking poset and related posets.

The parking poset on [n] consists of all pairs (partition, sigma) from
objects.ParkingElement, ordered by simultaneous refinement: an element is
below another when its partition is coarser and every label set of a
coarse block is the union of the label sets of the finer blocks inside
it.  Equivalently, eta shrinks pointwise going up.

The poset is graded by number of blocks minus one, has a unique bottom
(one block labeled by everything) and n! maximal elements; adjoining an
artificial top turns it into a lattice.

Below an element sits one element per noncrossing coarsening of its
partition (descend), so its ideal is its partition's ideal in NC_n.  Its
covers are local edits: a lower cover merges two blocks whose union
crosses no other block and unions their label sets (lower_covers), and
an upper cover splits a block and shares out its labels (upper_covers).
The poset builder lifts the NC_n lower covers by descent on the parking
word instead.  A meet is one descent, to the finest noncrossing
partition on which the two elements descend alike (pp_meet).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterable, Iterator

from .nc import (
    NoncrossingPartition,
    Permutation,
    SetPartition,
    enumerate_noncrossing,
    noncrossing_closure,
)
from .objects import ParkingElement, distributions
from .poset import FinitePoset, LazyElements, element_ids


class _Top:
    """Sentinel for the artificial maximum adjoined to the parking poset."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


def element_from_block_labels(
    n: int, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]
) -> ParkingElement:
    """Build an element from (block, label set) pairs in any order."""
    pairs = [(sorted(b), sorted(lab)) for b, lab in pairs]
    partition = NoncrossingPartition(n, [b for b, _ in pairs])
    by_min = {b[0]: lab for b, lab in pairs}
    return ParkingElement.from_triple(
        partition, [by_min[b[0]] for b in partition.blocks]
    )


# ----- noncrossing partition covers -----


def nc_upper_covers(partition: NoncrossingPartition) -> list[NoncrossingPartition]:
    """Split one block into a contiguous run (not containing the minimum)
    and its complement; every such split stays noncrossing and they are
    exactly the covers above."""
    out = []
    for idx, block in enumerate(partition.blocks):
        m = len(block)
        others = [b for t, b in enumerate(partition.blocks) if t != idx]
        for i in range(1, m):
            for j in range(i, m):
                b2 = block[i : j + 1]
                b1 = block[:i] + block[j + 1 :]
                out.append(NoncrossingPartition(partition.n, others + [b1, b2]))
    return out


def nc_lower_covers(partition: NoncrossingPartition) -> list[NoncrossingPartition]:
    """Merge two blocks whenever the result is still noncrossing."""
    out = []
    blocks = partition.blocks
    for i, j in combinations(range(len(blocks)), 2):
        merged = [b for t, b in enumerate(blocks) if t not in (i, j)]
        merged.append(blocks[i] + blocks[j])
        try:
            out.append(NoncrossingPartition(partition.n, merged))
        except ValueError:
            continue
    return out


def nc_coarsenings(partition: NoncrossingPartition) -> set[NoncrossingPartition]:
    """All noncrossing partitions below the given one (inclusive), i.e.
    its principal order ideal in NC_n, by closing under block merges."""
    seen = {partition}
    frontier = [partition]
    while frontier:
        p = frontier.pop()
        for q in nc_lower_covers(p):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


@lru_cache(maxsize=None)
def build_nc_poset(n: int) -> FinitePoset:
    """The noncrossing partition lattice NC_n as a FinitePoset, with its
    index built here, where the covers are looked up in it."""
    if n > 9:
        raise ValueError("build_nc_poset is guarded to n <= 9")
    elements = sorted(
        enumerate_noncrossing(n), key=lambda p: (len(p.blocks), p.blocks)
    )
    ids = element_ids(elements)
    covers = ((i, ids[q]) for i, p in enumerate(elements) for q in nc_upper_covers(p))
    poset = FinitePoset(elements, covers)
    poset.index = ids
    return poset


# ----- parking poset order -----


def pp_leq(a: ParkingElement, b: ParkingElement) -> bool:
    """a <= b iff eta_b(v) is contained in eta_a(v) for every value v."""
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    return all(
        set(down) >= set(up) for down, up in zip(a.eta(), b.eta())
    )


def pp_leq_by_refinement(a: ParkingElement, b: ParkingElement) -> bool:
    """The definition route, kept independent of pp_leq for cross-checks:
    the partition of b refines that of a, and each label set of a is the
    union of the label sets of the sub-blocks in b."""
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    if not b.partition.refines(a.partition):
        return False
    b_labels = b.labels
    for block, lab in zip(a.partition.blocks, a.labels):
        sub = {b.partition.block_index_of(x) for x in block}
        union: set[int] = set()
        for t in sub:
            union.update(b_labels[t])
        if union != set(lab):
            return False
    return True


def upper_covers(elem: ParkingElement) -> list[ParkingElement]:
    """Split a block into a contiguous run and its complement, and
    distribute the label set among the two new blocks in every way that
    matches the new sizes; one noncrossing partition per split."""
    out = []
    blocks = elem.partition.blocks
    labels = elem.labels
    n = elem.n
    for idx, (block, lab) in enumerate(zip(blocks, labels)):
        m = len(block)
        others = blocks[:idx] + blocks[idx + 1 :]
        for i in range(1, m):
            for j in range(i, m):
                b2 = block[i : j + 1]
                b1 = block[:i] + block[j + 1 :]
                split = NoncrossingPartition(n, others + (b1, b2))
                # b1 keeps the minimum, so it stays at idx; b2 sorts after it.
                at = split.blocks.index(b2)
                for s2 in combinations(lab, len(b2)):
                    taken = set(s2)
                    split_labels = list(labels)
                    split_labels[idx] = [x for x in lab if x not in taken]
                    split_labels.insert(at, s2)
                    out.append(ParkingElement.from_triple(split, split_labels))
    return out


def _nesting(partition: NoncrossingPartition) -> tuple[list[int], list[int]]:
    """For each block, the index of the innermost block around it (-1 for
    none) and the gap of that block it sits in, counted as the number of
    that block's elements below its minimum; by one scan of [n] with a
    stack of the open blocks."""
    blocks = partition.blocks
    parent = [-1] * len(blocks)
    gap = [0] * len(blocks)
    seen = [0] * len(blocks)
    stack: list[int] = []
    for x in range(1, partition.n + 1):
        p = partition.block_index_of(x)
        block = blocks[p]
        if block[0] == x:
            if stack:
                parent[p] = stack[-1]
                gap[p] = seen[stack[-1]]
            if len(block) > 1:
                stack.append(p)
        elif block[-1] == x:
            stack.pop()
        seen[p] += 1
    return parent, gap


def lower_covers(elem: ParkingElement) -> list[ParkingElement]:
    """Merge blocks i < j of the partition, and their label sets, whenever
    the merged block crosses no other block; in the order of
    nc_lower_covers.

    The test reads the nesting of the blocks: the merge is noncrossing
    exactly when block i is the innermost block around block j, or the
    two blocks sit in the same gap of the same innermost block (or of
    none).  Any other block around j, or any element of a common
    surrounding block between them, would cross the merged block.
    """
    partition = elem.partition
    blocks = partition.blocks
    labels = elem.labels
    n = elem.n
    parent, gap = _nesting(partition)
    out = []
    for i, j in combinations(range(len(blocks)), 2):
        if parent[j] != i and (parent[j] != parent[i] or gap[j] != gap[i]):
            continue
        # The merged block keeps the minimum of block i, so it stays at i.
        merged = NoncrossingPartition(
            n, blocks[:i] + (blocks[i] + blocks[j],) + blocks[i + 1 : j] + blocks[j + 1 :]
        )
        merged_labels = (
            labels[:i] + (labels[i] + labels[j],) + labels[i + 1 : j] + labels[j + 1 :]
        )
        out.append(ParkingElement.from_triple(merged, merged_labels))
    return out


def _block_minima(partition: SetPartition) -> list[int]:
    """For each x in [n], the minimum of the block containing x."""
    return [partition.block_of(x)[0] for x in range(1, partition.n + 1)]


def descend(elem: ParkingElement, coarser: NoncrossingPartition) -> ParkingElement:
    """The unique element below elem with the given coarser partition.

    Each parking-word letter drops to the minimum of its coarser block.
    Requires the partition of elem to refine `coarser`.
    """
    if not elem.partition.refines(coarser):
        raise ValueError("descend needs a coarsening of the element's partition")
    if not isinstance(coarser, NoncrossingPartition):
        coarser = NoncrossingPartition(coarser.n, coarser.blocks)
    low = [0, *_block_minima(coarser)]
    return _element_from_word(coarser, map(low.__getitem__, elem.word))


def ideal(elem: ParkingElement) -> list[ParkingElement]:
    """The principal order ideal of elem: one element per noncrossing
    coarsening of its partition, by descent uniqueness."""
    return [
        descend(elem, p)
        for p in sorted(
            nc_coarsenings(elem.partition), key=lambda p: (len(p.blocks), p.blocks)
        )
    ]


def pp_join(a: ParkingElement, b: ParkingElement):
    """Least upper bound in the parking poset with artificial top.

    Intersect eta pointwise.  An empty intersection, or a group of values
    whose size differs from its common intersection block, forces the
    join up to TOP.  Otherwise the intersections form the common
    refinement of the two partitions and the value groups are its label
    sets.
    """
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    n = a.n
    if n == 0:
        return a
    ea, eb = a.eta(), b.eta()
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(1, n + 1):
        inter = frozenset(ea[v - 1]) & frozenset(eb[v - 1])
        if not inter:
            return TOP
        groups.setdefault(inter, []).append(v)
    pairs = []
    for block, values in groups.items():
        if len(values) != len(block):
            return TOP
        pairs.append((sorted(block), values))
    return element_from_block_labels(n, pairs)


def pp_join_many(elems: Iterable[ParkingElement]):
    """Fold of pp_join; TOP is absorbing."""

    def step(acc, x):
        if acc is TOP:
            return TOP
        return pp_join(acc, x)

    it = iter(elems)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("pp_join_many needs at least one element")
    return reduce(step, it, first)


def pp_meet(a: ParkingElement, b: ParkingElement) -> ParkingElement:
    """Greatest lower bound, by noncrossing closure.

    The elements below a are descend(a, p) for the noncrossing p coarser
    than its partition, and descend(a, p) == descend(b, p) exactly when
    each position's two letters a.word[i], b.word[i] share a p-block.  So
    the meet descends a to the finest noncrossing partition in which the
    blocks of both partitions and every letter pair lie inside blocks.
    """
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    groups = [*a.partition.blocks, *b.partition.blocks, *zip(a.word, b.word)]
    result = descend(a, noncrossing_closure(a.n, groups))
    if not (pp_leq(result, a) and pp_leq(result, b)):
        raise RuntimeError(f"meet computation failed for {a!r}, {b!r}")
    return result


MAX_POSET_N = 6


@lru_cache(maxsize=None)
def _parking_listing(n: int) -> tuple[tuple, tuple, tuple, dict]:
    """The parking words of the elements of [n] sorted by (rank, word),
    the position in that order of each element as enumerate_elements(n)
    lists it, the NC_n id of each sorted word's partition, and the id of
    each word: one listing serves build_pp_poset, parking_words,
    enumeration_ids, partition_ids and pp_action_ids, and builds no
    element.  It runs over the partitions in enumerate_elements order,
    so each partition is looked up once.  The label sets depend on the
    block sizes only, so each tuple of sizes is distributed once, into
    patterns that give each position its block, and a partition's words
    read its block minima through them."""
    if n > MAX_POSET_N:
        raise ValueError(f"build_pp_poset is guarded to n <= {MAX_POSET_N}")
    index = build_nc_poset(n).index
    patterns: dict[tuple[int, ...], list[list[int]]] = {}
    listing = []
    for partition in enumerate_noncrossing(n):
        sizes = tuple(map(len, partition.blocks))
        if sizes not in patterns:
            patterns[sizes] = []
            for labels in distributions(range(n), sizes):
                pattern = [0] * n
                for t, lab in enumerate(labels):
                    for y in lab:
                        pattern[y] = t
                patterns[sizes].append(pattern)
        lows = [b[0] for b in partition.blocks].__getitem__
        rank, part = len(sizes) - 1, index[partition]
        listing += [(rank, tuple(map(lows, p)), part) for p in patterns[sizes]]
    order = sorted(range(len(listing)), key=listing.__getitem__)
    ids = [0] * len(order)
    for i, j in enumerate(order):
        ids[j] = i
    words = tuple(listing[j][1] for j in order)
    parts = tuple(listing[j][2] for j in order)
    return words, tuple(ids), parts, {w: i for i, w in enumerate(words)}


def _element_from_word(partition: NoncrossingPartition, word) -> ParkingElement:
    """The element with the given partition and parking word: each block's
    label set is the positions that carry its minimum."""
    labels: dict[int, list[int]] = {b[0]: [] for b in partition.blocks}
    for i, m in enumerate(word, start=1):
        labels[m].append(i)
    return ParkingElement.from_triple(partition, labels.values())


@lru_cache(maxsize=None)
def build_pp_poset(n: int) -> FinitePoset:
    """The parking poset on [n], elements sorted by (rank, word), with the
    NC_n lower covers of each partition lifted by descent on the word,
    and streamed to the constructor.  The build reads words and partition
    ids only: each element is built from its word when its id is first
    read, and the index on first lookup."""
    words, _, parts, by_word = _parking_listing(n)
    nc = build_nc_poset(n)
    # The minimum of the block of each letter, indexed by the letter.
    block_min = [[0, *_block_minima(q)].__getitem__ for q in nc.elements]
    covers = (
        (by_word[tuple(map(block_min[q], word))], i)
        for i, (word, part) in enumerate(zip(words, parts))
        for q in nc.down[part]
    )
    partitions = nc.elements
    elements = LazyElements(
        len(words), lambda i: _element_from_word(partitions[parts[i]], words[i])
    )
    return FinitePoset(elements, covers)


def parking_words(n: int) -> tuple[tuple[int, ...], ...]:
    """The parking word of each build_pp_poset(n) id."""
    return _parking_listing(n)[0]


def enumeration_ids(n: int) -> tuple[int, ...]:
    """The build_pp_poset(n) id of each element, in enumerate_elements(n)
    order."""
    return _parking_listing(n)[1]


def partition_ids(n: int) -> tuple[int, ...]:
    """The build_nc_poset(n) id of each build_pp_poset(n) element's partition."""
    return _parking_listing(n)[2]


@lru_cache(maxsize=None)
def build_pp_poset_hat(n: int) -> FinitePoset:
    """The parking poset with an artificial top adjoined."""
    base = build_pp_poset(n)
    top = len(base)
    covers = base.cover_index_pairs() + [(i, top) for i in base.maximal_indices()]
    elements = LazyElements(top + 1, lambda i: TOP if i == top else base.elements[i])
    return FinitePoset(elements, covers)


def pp_action_ids(n: int, perm: Permutation) -> list[int]:
    """The permutation of the build_pp_poset(n) ids induced by perm:
    entry i is the id of perm applied to element i.

    The action permutes positions of the parking word, as
    ParkingElement.act and enumeration.word_action do: the letter at
    position perm(i) of the new word is the letter at position i of the
    old one.  Each new word is looked up in the listing's word table; no
    element is built or read.
    """
    if perm.n != n:
        raise ValueError("permutation size mismatch")
    ids = _parking_listing(n)[3]
    inv = perm.inverse()
    source = [inv(i) - 1 for i in range(1, n + 1)]
    return [ids[tuple(map(word.__getitem__, source))] for word in ids]


# ----- permutahedron face poset and right combs -----


def ordered_set_compositions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered set compositions of [n], each part a sorted tuple."""

    def rec(pool: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not pool:
            yield ()
            return
        for r in range(1, len(pool) + 1):
            for first in combinations(pool, r):
                taken = set(first)
                rest = tuple(x for x in pool if x not in taken)
                for tail in rec(rest):
                    yield (first,) + tail

    yield from rec(tuple(range(1, n + 1)))


def leq_composition(
    c: tuple[tuple[int, ...], ...], d: tuple[tuple[int, ...], ...]
) -> bool:
    """c <= d when c is obtained from d by merging adjacent parts."""
    it = iter(d)
    for part in c:
        target = set(part)
        acc: set[int] = set()
        while acc != target:
            nxt = next(it, None)
            if nxt is None or not acc.union(nxt) <= target:
                return False
            acc.update(nxt)
    return next(it, None) is None


@lru_cache(maxsize=None)
def permutahedron_face_poset(n: int) -> FinitePoset:
    """Face poset of the permutahedron: ordered set compositions of [n],
    with covers given by merging two adjacent parts (downward).  Oriented
    with the one-part composition at the bottom."""
    if n > 6:
        raise ValueError("permutahedron_face_poset is guarded to n <= 6")
    elements = sorted(ordered_set_compositions(n), key=lambda c: (len(c), c))
    ids = element_ids(elements)
    covers = (
        (ids[(*c[:i], tuple(sorted(c[i] + c[i + 1])), *c[i + 2 :])], j)
        for j, c in enumerate(elements)
        for i in range(len(c) - 1)
    )
    poset = FinitePoset(elements, covers)
    poset.index = ids
    return poset


def right_comb_subposet(n: int) -> FinitePoset:
    """Induced subposet of the parking poset on its right-comb elements;
    order-isomorphic to the permutahedron face poset via to_composition."""
    poset = build_pp_poset(n)
    keep = [x for x in poset.elements if x.is_right_comb()]
    return poset.induced(keep)
