"""Shellability machinery for the parking function poset.

Adjoining a top element to the parking poset on [n] gives a bounded
graded poset of length n.  Its maximal chains are ordered
lexicographically: covers of a common element are compared first by the
permutation code of the upper element's label permutation, then by a
transposition labeling of the underlying noncrossing covers.  This
module implements that order, an exhaustive checker for the shelling
condition, and checkers for the supporting statistics (split block,
code jump, zero prefix) and their structural properties.

Every check runs on ids and reads one cover order per poset: the upper
covers of each id sorted by key (``_cover_order``).  On the noncrossing
side the key is ``transposition_label``, one per NC_n cover; on the
parking side it is ``cover_key`` read from ids, one code per element
read off its parking word and partition (``_parking_codes``) and one
label per NC_n cover, in one cached order per n
(``_parking_cover_order``).  The first cover of x below v in that order
(``_first_below``) decides every earlier-swap test; where v is two
ranks above x, one table per x answers it for every such v
(``_first_below_two_up``), and both fork lemmas run one loop on it.
The maximal chains come out of a depth-first walk over the sorted
lists, already in the chain order, and the shelling check keeps its
state per chain prefix: a chain passes when, between the positions
where an earlier swap exists, it takes the first cover below the next
such position at every step, and each such test runs once for all
chains through the prefix it reads.  No bounded poset is built: the
walk runs on ``build_pp_poset(n)`` with a sentinel top id m as the one
cover of every maximal element (``_hat_cover_order``), and -1 as its
down-set mask.  Joins are read from ``join_index`` of the poset checked,
with None for the adjoined top: the bounded poset is a lattice, so two
elements with a common upper bound in the parking poset have a least one
there, and its join in the bounded poset is the top exactly when they
have none.

Everything here is exhaustive verification on small n; the guards of
``parking_order.build_pp_poset`` apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, pairwise, permutations
from typing import Callable, Iterator

from .nc import (
    NoncrossingPartition,
    embed_permutation,
    permutation_code,
    zero_prefix_length,
)
from .objects import ParkingElement
from .parking_order import (
    build_nc_poset,
    build_pp_poset,
    element_from_block_labels,
    lower_covers,
    parking_words,
    partition_ids,
    upper_covers,
)
from .poset import FinitePoset, _bits, _chains

# ----- cover statistics -----


def transposition_label(lower: NoncrossingPartition, upper: NoncrossingPartition):
    """Label of a cover in the noncrossing partition lattice.

    Composing the permutation embedded from the upper partition after
    the inverse of the one embedded from the lower partition gives a
    transposition; the label is that transposition as a pair (i, j)
    with i < j.  Labels are compared lexicographically.  Of the two
    possible composition orders, this is the one for which every
    interval of the lattice has a unique strictly increasing maximal
    chain.  Raises ValueError if the two partitions do not form a
    covering pair.
    """
    diff = embed_permutation(upper) * embed_permutation(lower).inverse()
    moved = [v for v in range(1, lower.n + 1) if diff(v) != v]
    if len(moved) != 2 or diff(moved[0]) != moved[1]:
        raise ValueError(f"{lower} and {upper} are not a covering pair")
    return (moved[0], moved[1])


def element_code(elem: ParkingElement) -> tuple[int, ...]:
    """Code of the label permutation, most significant entry first."""
    return permutation_code(elem.sigma)


def element_zero_prefix(elem: ParkingElement) -> int:
    """Number of leading zeroes of the element's code."""
    return zero_prefix_length(permutation_code(elem.sigma))


def split_block(lower: ParkingElement, upper: ParkingElement) -> frozenset[int]:
    """The block of the lower element that a cover splits in two."""
    gone = set(lower.partition.blocks) - set(upper.partition.blocks)
    if len(gone) != 1 or upper.rank != lower.rank + 1:
        raise ValueError("not a covering pair")
    return frozenset(gone.pop())


def _code_jump(low: tuple[int, ...], high: tuple[int, ...]) -> int:
    """Largest index whose code entry grows along a cover, or 0.

    For a cover with label permutations sigma (below) and tau (above),
    given their codes highest index first, this is the maximal i such
    that c_i(sigma) < c_i(tau), and 0 when sigma equals tau.
    """
    if low == high:
        return 0
    n = len(low)
    for t in range(n):
        if low[t] < high[t]:
            return n - t
    raise ValueError("the code does not grow along this pair")


def cover_key(lower: ParkingElement, upper: ParkingElement) -> tuple:
    """Sort key realizing the cover order at a fixed lower element.

    Covers of a common element are ordered by the code of their label
    permutation, with ties broken by the transposition label of the
    underlying noncrossing cover.  The combined key is injective on the
    covers of a fixed element, so the order is total.
    """
    return (
        permutation_code(upper.sigma),
        transposition_label(lower.partition, upper.partition),
    )


def cover_precedes(
    lower: ParkingElement, a: ParkingElement, b: ParkingElement
) -> bool:
    """Whether a strictly precedes b in the cover order at lower."""
    return cover_key(lower, a) < cover_key(lower, b)


# ----- the cover order on ids -----


def _cover_order(
    poset: FinitePoset, key: Callable[[int, int], tuple]
) -> list[list[int]]:
    """For each id, its upper covers sorted by ``key(id, cover)``.

    Raises ValueError if two covers of the same element receive the same
    key, since the chain order would then not be total.
    """
    order = []
    for i, ups in enumerate(poset.up):
        keyed = sorted((key(i, j), j) for j in ups)
        if any(a[0] == b[0] for a, b in pairwise(keyed)):
            raise ValueError(f"tied cover keys above element {i}")
        order.append([j for _, j in keyed])
    return order


def _nc_labels(nc: FinitePoset) -> dict[tuple[int, int], tuple[int, int]]:
    """One ``transposition_label`` per cover of a noncrossing lattice, by
    ids."""
    elements = nc.elements
    return {
        (a, b): transposition_label(elements[a], elements[b])
        for a, ups in enumerate(nc.up)
        for b in ups
    }


def _word_code(word: tuple[int, ...], blocks) -> tuple[int, ...]:
    """`element_code` of the element with this parking word over the
    partition with these blocks: the element at each position is the next
    one, increasingly, of the block whose minimum is the letter there,
    and entry i counts the earlier positions holding a larger element."""
    take = {b[0]: iter(b) for b in blocks}
    at = [next(take[m]) for m in word]
    return tuple([sum(map(v.__lt__, at[:i])) for i, v in enumerate(at)])[::-1]


@cache
def _parking_codes(n: int) -> list[tuple[int, ...]]:
    """One `element_code` per id of ``build_pp_poset(n)``, read from the
    parking word and the partition id with no element or permutation
    built."""
    partitions = build_nc_poset(n).elements
    return [
        _word_code(word, partitions[part].blocks)
        for word, part in zip(parking_words(n), partition_ids(n))
    ]


def _parking_key(n: int) -> Callable[[int, int], tuple]:
    """``cover_key`` on the ids of ``build_pp_poset(n)``: the code of the
    upper element, then the transposition label of the NC_n cover of
    the two partitions."""
    codes = _parking_codes(n)
    pid = partition_ids(n)
    label = _nc_labels(build_nc_poset(n))
    return lambda i, j: (codes[j], label[(pid[i], pid[j])])


@cache
def _parking_cover_order(n: int) -> list[list[int]]:
    """The sorted upper covers of each id of ``build_pp_poset(n)``."""
    return _cover_order(build_pp_poset(n), _parking_key(n))


def _hat_cover_order(n: int) -> list[list[int]]:
    """The cover order of the bounded parking poset on ids: that of
    ``build_pp_poset(n)``, with the sentinel top, id m, the one cover of
    every maximal element."""
    order = _parking_cover_order(n)
    top = len(order)
    return [ups or [top] for ups in order] + [[]]


def _first_below(order: list[list[int]], x: int, mask: int) -> int:
    """The first cover of x, in the cover order at x, that lies at or
    below v, given the down-set mask of v (-1 for the top); x < v is
    required."""
    return next(w for w in order[x] if mask >> w & 1)


def _first_below_two_up(
    poset: FinitePoset, order: list[list[int]], x: int
) -> dict[int, int]:
    """`_first_below` at x for every z two ranks above x, as one dict: in
    a graded poset a cover w of x lies below such a z exactly when z
    covers w, so the first w in the order at x to list z keeps it."""
    first: dict[int, int] = {}
    for w in order[x]:
        for z in poset.up[w]:
            first.setdefault(z, w)
    return first


# ----- the chain order and the shelling condition -----


@dataclass
class ShellingReport:
    """Outcome of an exhaustive shelling check.  ``facets`` counts the
    chains p with D(p) every interior position (see `verify_shelling`)."""

    n: int
    num_chains: int = 0
    facets: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def sorted_maximal_chains(n: int) -> list[tuple[int, ...]]:
    """Maximal chains of the bounded parking poset, as id tuples with
    the top as id m, sorted by the lexicographic order induced by the
    cover order.

    Two chains are compared at the first position where they differ;
    at that position both elements cover the same element, and the
    cover order there decides.  A depth-first walk that takes the
    covers of each element in that order gives the chains sorted.
    """
    return list(_chains(_hat_cover_order(n)))


def _check_shelling(
    n: int, poset: FinitePoset, order: list[list[int]]
) -> ShellingReport:
    """The check of `verify_shelling` on a poset with bottom id 0, with
    the sentinel top id ``len(poset)`` adjoined, whose covers, the top
    among them, are ordered by ``order``.

    The walk is that of `poset._chains`, with a state per depth d of the
    chain prefix: the last position before d - 1 found in D(p) (0 if
    none), whether every interior position before d - 1 is in D(p), and
    whether every gap closed so far passed.  The element at d decides
    whether position d - 1 is in D(p), and if it is, closes the gap up to
    d - 1; so each earlier-swap test and each gap test runs once per
    prefix, not once per maximal chain through it."""
    memo: dict[int, int] = {}
    top = len(poset)

    def first(x: int, v: int) -> int:
        key = x * (top + 1) + v
        w = memo.get(key)
        if w is None:
            mask = -1 if v == top else poset.downset_mask(v)
            w = memo[key] = _first_below(order, x, mask)
        return w

    # whether the chain takes the first cover below v, its element at the
    # fixed position b, at every position from a + 1 to b - 2; the one at
    # b - 1 does by not being in D(p), so callers skip gaps with b - a < 3
    def gap(a: int, b: int, v: int) -> bool:
        return all(first(chain[l - 1], v) == chain[l] for l in range(a + 1, b - 1))

    report = ShellingReport(n=n)
    chain, state, stack = [0], [(0, True, True)], [iter(order[0])]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            chain.pop()
            state.pop()
            continue
        d = len(chain)
        a, every, ok = state[-1]
        if d > 1:
            if first(chain[d - 2], v) != chain[d - 1]:
                ok = ok and (d - 1 - a < 3 or gap(a, d - 1, chain[d - 1]))
                a = d - 1
            else:
                every = False
        if order[v]:
            chain.append(v)
            state.append((a, every, ok))
            stack.append(iter(order[v]))
            continue
        report.num_chains += 1
        if every:
            report.facets += 1
        elif not (ok and (d - a < 3 or gap(a, d, v))):
            full = (*chain, v)
            earlier = [0]
            # the positions of D(p) are the last fixed positions of the states
            for b in [*sorted({s[0] for s in state} | {a})[1:], d]:
                while earlier[-1] != full[b]:
                    earlier.append(first(earlier[-1], full[b]))
            report.violations.append((tuple(earlier), full))
    return report


def verify_shelling(n: int) -> ShellingReport:
    """Exhaustively check that the chain order shells the bounded poset.

    The shelling condition asks that for any two maximal chains q < p
    there is a chain differing from p in exactly one element, earlier
    than p, and containing the intersection of q and p.  A chain
    differing from p only at position l is earlier than p exactly when
    the replacement element precedes p[l] in the cover order at
    p[l - 1]; call D(p) the set of positions where such a replacement
    exists.  The condition then reads: no earlier chain agrees with p
    on all positions of D(p).  The first chain through p's elements at
    D(p) and both ends takes, between two consecutive such positions,
    the first cover below the next fixed element at every step.  So a
    chain passes when it takes that first cover at every position
    outside D(p), and a failing p is reported with that first chain.
    The chains come from the walk of `sorted_maximal_chains`, which
    keeps its state per chain prefix: whether a position is in D(p), and
    whether the gap ending there passes, is decided once for all chains
    through the prefix.  No chain is stored.

    The chains with D(p) every interior position are the homology
    facets of this lexicographic shelling, counted in ``facets``: the
    top reduced Betti number of the proper part (Bjorner and Wachs,
    "Shellable nonpure complexes and posets").
    """
    return _check_shelling(n, build_pp_poset(n), _hat_cover_order(n))


# ----- the fork lemma -----


@dataclass
class ForkReport:
    """Outcome of the exhaustive fork check behind the shelling argument."""

    n: int
    checked: int = 0
    replaced_middle: int = 0
    raised_top: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _verify_fork(n: int, poset: FinitePoset, order: list[list[int]]) -> ForkReport:
    """The fork check of ``verify_fork_lemma`` on a poset whose covers
    are sorted by ``order``; a join that ``poset.join_index`` leaves as
    None is the adjoined top, whose down-set mask -1 holds every id."""
    elements = poset.elements
    report = ForkReport(n=n)
    for x, ups in enumerate(order):
        first = _first_below_two_up(poset, order, x)
        for k, y in enumerate(ups):
            if not k:
                continue
            for h, z in enumerate(order[y]):
                report.checked += k
                if first[z] != y:
                    report.replaced_middle += k
                    continue
                for yp in ups[:k]:
                    top = poset.join_index(yp, z)
                    below = -1 if top is None else poset.downset_mask(top)
                    if any(below >> zp & 1 for zp in order[y][:h]):
                        report.raised_top += 1
                    else:
                        report.violations.append(
                            (elements[x], elements[y], elements[yp], elements[z])
                        )
    return report


def verify_fork_lemma(n: int) -> ForkReport:
    """Check the two-branch fork property of the cover order.

    For every x covered by y and y', with y' preceding y at x, and
    every z covering y, at least one of the following must hold:

    * some y'' with x < y'' < z precedes y at x (the chain through y
      can be improved at the middle level), or
    * some cover z' of y with z' below the join of y' and z precedes
      z at y (the chain can be improved one level up).

    Returns a report counting how often each branch applies; both
    branches are exercised for n >= 4.
    """
    return _verify_fork(n, build_pp_poset(n), _parking_cover_order(n))


# ----- structural properties of the statistics -----


def check_code_monotone(n: int) -> int:
    """Codes grow weakly along the order; returns the number of pairs."""
    poset = build_pp_poset(n)
    codes = _parking_codes(n)
    checked = 0
    for i, code in enumerate(codes):
        for j in _bits(poset.upset_mask(i) ^ 1 << i):
            checked += 1
            if not code <= codes[j]:
                raise ValueError(
                    f"code drops along {poset.elements[i]} <= {poset.elements[j]}"
                )
    return checked


def check_equal_code_join(n: int) -> int:
    """Two elements with equal codes have a proper join with that same
    code; returns the number of pairs checked."""
    poset = build_pp_poset(n)
    elements = poset.elements
    codes = _parking_codes(n)
    by_code: dict[tuple, list[int]] = {}
    for i, code in enumerate(codes):
        by_code.setdefault(code, []).append(i)
    checked = 0
    for code, group in by_code.items():
        for a in group:
            for b in group:
                if a == b:
                    continue
                checked += 1
                join = poset.join_index(a, b)
                if join is None or codes[join] != code:
                    a, b = elements[a], elements[b]
                    raise ValueError(f"join of {a} and {b} breaks the code")
    return checked


def check_zero_prefix_blocks(n: int) -> int:
    """The zero prefix length counts the top labels v with v inside the
    block carrying v; returns the number of elements checked."""
    poset = build_pp_poset(n)
    for elem, code in zip(poset.elements, _parking_codes(n)):
        eta = elem.eta()
        k = 0
        while k < n and (n - k) in eta[n - k - 1]:
            k += 1
        if zero_prefix_length(code) != k:
            raise ValueError(f"zero prefix mismatch at {elem}")
    return len(poset.elements)


def check_zero_prefix_join(n: int) -> int:
    """A proper join has zero prefix the minimum of the two; returns the
    number of pairs with a proper join."""
    poset = build_pp_poset(n)
    elements = poset.elements
    prefix = [zero_prefix_length(code) for code in _parking_codes(n)]
    checked = 0
    for i, j in combinations(range(len(elements)), 2):
        join = poset.join_index(i, j)
        if join is None:
            continue
        checked += 1
        if prefix[join] != min(prefix[i], prefix[j]):
            a, b = elements[i], elements[j]
            raise ValueError(f"zero prefix of join of {a} and {b} is off")
    return checked


def _cover_pairs(
    n: int, same_block: bool
) -> Iterator[tuple[int, int, int, int | None]]:
    """Each x of ``build_pp_poset(n)`` with two upper covers s and t that
    split the same block of x, or different blocks, as ``same_block`` asks,
    and the join of s and t (None for the top); the split block is the one
    holding the transposition label of the NC_n cover, read once per cover."""
    poset, nc, pid = build_pp_poset(n), build_nc_poset(n), partition_ids(n)
    labels = _nc_labels(nc).items()
    block = {c: nc.elements[c[0]].block_index_of(t[0]) for c, t in labels}
    for x, ups in enumerate(poset.up):
        split = {s: block[pid[x], pid[s]] for s in ups}
        for s, t in combinations(ups, 2):
            if (split[s] == split[t]) == same_block:
                yield x, s, t, poset.join_index(s, t)


def check_split_diamond(n: int) -> int:
    """Covers of a common element splitting different blocks span a
    diamond: their join is proper, two ranks up, the open interval
    between bottom and join holds exactly those two elements, and the
    code jumps across the diamond match crosswise.  Returns the number
    of diamonds checked."""
    poset = build_pp_poset(n)
    elements, ranks = poset.elements, poset.ranks()
    codes = _parking_codes(n)
    checked = 0
    for x, s, t, j in _cover_pairs(n, same_block=False):
        checked += 1
        if j is None or ranks[j] != ranks[x] + 2:
            raise ValueError(f"diamond join fails over {elements[x]}")
        diamond = 1 << x | 1 << s | 1 << t | 1 << j
        if poset.upset_mask(x) & poset.downset_mask(j) != diamond:
            raise ValueError(f"diamond interval fails over {elements[x]}")
        cx, cs, ct, cj = codes[x], codes[s], codes[t], codes[j]
        ja, jb = _code_jump(cx, cs), _code_jump(cx, ct)
        if ja != _code_jump(ct, cj) or jb != _code_jump(cs, cj):
            raise ValueError(f"diamond code jumps fail over {elements[x]}")
        if ja == jb and ja != 0:
            raise ValueError(f"equal nonzero jumps over {elements[x]}")
    return checked


def check_same_block_jump_bound(n: int) -> int:
    """Covers of x splitting the same block bound the code jump inside
    the interval up to their join: every cover u < v in that interval
    jumps at most max of the two initial jumps.  Pairs whose join is
    the artificial top are skipped, since the jump is not defined
    there.  Returns the number of cover pairs checked."""
    poset = build_pp_poset(n)
    codes = _parking_codes(n)
    checked = 0
    for x, s, t, join in _cover_pairs(n, same_block=True):
        if join is None:
            continue
        bound = max(_code_jump(codes[x], codes[s]), _code_jump(codes[x], codes[t]))
        inside = poset.upset_mask(x) & poset.downset_mask(join)
        for u in _bits(inside):
            for v in poset.up[u]:
                if not inside >> v & 1:
                    continue
                checked += 1
                if _code_jump(codes[u], codes[v]) > bound:
                    raise ValueError(
                        f"jump bound fails over {poset.elements[x]} with "
                        f"{poset.elements[s]}, {poset.elements[t]}"
                    )
    return checked


def _minimal_steps(
    poset: FinitePoset, order: list[list[int]]
) -> Iterator[tuple[int, int, int]]:
    """Each x covered by y covered by z, as (x, y, z), where y is the first
    cover of x below z in ``order``."""
    for x, ups in enumerate(order):
        first = _first_below_two_up(poset, order, x)
        for y in ups:
            for z in order[y]:
                if first[z] == y:
                    yield x, y, z


def check_minimal_jump_grows(n: int) -> int:
    """Along x covered by y covered by z, if y is the earliest element
    of the open interval (x, z) in the cover order at x, the code jump
    weakly grows from the lower cover to the upper one.  Returns the
    number of such minimal configurations."""
    poset = build_pp_poset(n)
    codes = _parking_codes(n)
    checked = 0
    for x, y, z in _minimal_steps(poset, _parking_cover_order(n)):
        checked += 1
        if _code_jump(codes[x], codes[y]) > _code_jump(codes[y], codes[z]):
            raise ValueError(f"jump drops along minimal chain at {poset.elements[x]}")
    return checked


def check_jump_code_compatible(n: int) -> int:
    """For two covers of a common element, a strictly smaller code jump
    forces a strictly smaller code, and distinct jumps order the codes
    the same way.  Returns the number of ordered pairs checked."""
    poset = build_pp_poset(n)
    codes = _parking_codes(n)
    checked = 0
    for x, ups in enumerate(poset.up):
        jumps = {s: _code_jump(codes[x], codes[s]) for s in ups}
        for s, t in permutations(ups, 2):
            checked += 1
            if jumps[s] != jumps[t] and (jumps[s] < jumps[t]) != (codes[s] < codes[t]):
                raise ValueError(f"jump and code disagree above {poset.elements[x]}")
    return checked


# ----- the noncrossing lattice side -----


def check_nc_el_labeling(n: int) -> int:
    """The transposition labeling is an EL-labeling of the noncrossing
    lattice: in every closed interval exactly one maximal chain has a
    strictly increasing label sequence, and it is lexicographically
    first.  Covers of a common element get distinct labels.  Returns
    the number of intervals inspected.
    """
    poset = build_nc_poset(n)
    elements = poset.elements
    up, labels = poset.up, _nc_labels(poset)
    checked = 0
    for a in range(len(elements)):
        for b in _bits(poset.upset_mask(a) ^ 1 << a):
            checked += 1
            inside = poset.upset_mask(a) & poset.downset_mask(b)
            order = {i: [j for j in up[i] if inside >> j & 1] for i in _bits(inside)}
            sequences = [
                tuple(map(labels.__getitem__, pairwise(chain)))
                for chain in _chains(order, a)
            ]
            increasing = [
                seq for seq in sequences if all(x < y for x, y in pairwise(seq))
            ]
            if len(increasing) != 1 or increasing[0] != min(sequences):
                raise ValueError(
                    f"EL property fails on [{elements[a]}, {elements[b]}]"
                )
    return checked


def verify_nc_fork_lemma(n: int) -> ForkReport:
    """The fork property also holds in the noncrossing lattice, with
    covers ordered by their transposition labels."""
    poset = build_nc_poset(n)
    labels = _nc_labels(poset)
    order = _cover_order(poset, lambda i, j: labels[(i, j)])
    return _verify_fork(n, poset, order)


# ----- failure of the recursive atom ordering criterion -----


def recursive_atom_ordering_failure() -> dict:
    """A concrete witness that the cover orders do not form a recursive
    atom ordering, computed locally in the poset on [6].

    The witness consists of atoms y and w below a rank two element z,
    an atom y1 preceding y at the bottom, and a rank two element z1
    covering both y and y1.  A recursive atom ordering would require
    covers of y lying above an earlier atom, such as z1, to precede the
    others, such as z, in the order at y; the opposite holds.  All
    cover relations and order comparisons are recomputed on the fly.
    """
    x = ParkingElement.bottom(6)
    y = element_from_block_labels(6, [((1, 2, 3), (1, 2, 4)), ((4, 5, 6), (3, 5, 6))])
    y1 = element_from_block_labels(6, [((1, 4, 5, 6), (3, 4, 5, 6)), ((2, 3), (1, 2))])
    z = element_from_block_labels(
        6, [((1, 3), (1, 2)), ((2,), (4,)), ((4, 5, 6), (3, 5, 6))]
    )
    z1 = element_from_block_labels(
        6, [((1,), (4,)), ((2, 3), (1, 2)), ((4, 5, 6), (3, 5, 6))]
    )

    atoms = upper_covers(x)
    if y not in atoms or y1 not in atoms:
        raise RuntimeError("witness atoms are not atoms")
    if z not in upper_covers(y) or z1 not in upper_covers(y):
        raise RuntimeError("witness elements do not cover y")
    if z1 not in upper_covers(y1):
        raise RuntimeError("z1 does not cover y1")
    below_z = lower_covers(z)
    if len(below_z) != 2 or y not in below_z:
        raise RuntimeError("z does not have the expected lower covers")
    w = next(e for e in below_z if e != y)

    if not cover_precedes(x, y1, y):
        raise RuntimeError("y1 does not precede y")
    if not cover_precedes(x, y, w):
        raise RuntimeError("y does not precede w")
    if not cover_precedes(y, z, z1):
        raise RuntimeError("z does not precede z1")
    return {"x": x, "y": y, "y_prime": y1, "z": z, "z_prime": z1, "w": w}
