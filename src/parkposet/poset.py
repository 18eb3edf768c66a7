"""A small exact kernel for finite posets given by their cover relations.

Elements can be any hashable objects; covers are pairs of their ids,
the indices into the element list.  The order is stored as bitmask
closures of the cover digraph, so containment tests, Mobius values,
multichain counts and lattice checks all run on plain integers.  The
element list may be a LazyElements, whose entries are built on first
read, and the {element: id} index is built on first lookup, so a poset
read only by id never builds or hashes an element.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, Sequence


class LazyElements(Sequence):
    """A fixed-length element list whose entry i is make(i), built on
    first read and kept; make never returns None."""

    __slots__ = ("_make", "_built")

    def __init__(self, length: int, make: Callable[[int], Hashable]):
        self._make = make
        self._built: list = [None] * length

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        x = self._built[i]
        if x is None:
            x = self._built[i] = self._make(range(len(self))[i])
        return x

    def __iter__(self) -> Iterator[Hashable]:
        return map(self.__getitem__, range(len(self)))


def element_ids(elements: Sequence[Hashable]) -> dict[Hashable, int]:
    """The id of each element; ValueError on duplicate elements."""
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    return index


class FinitePoset:
    """Finite poset built from an element list and cover id pairs (low, high).

    Each id keeps its upper and lower covers (up, down) as sorted lists
    with no repeat, filled as the covers come from any iterable.  A
    LazyElements list is kept as given, so its entries are built only when
    read; any other sequence is copied into a list.  The index, and with
    it the check for duplicate elements, is built on first lookup;
    builders that hash their elements anyway check them at construction.
    """

    def __init__(
        self,
        elements: Sequence[Hashable],
        covers: Iterable[tuple[int, int]],
    ):
        """Covers are (low, high) id pairs; ValueError on an id outside
        range(len(elements)), a self-cover or a cycle."""
        if not isinstance(elements, LazyElements):
            elements = list(elements)
        self.elements = elements
        m = len(self.elements)
        ids = list(range(m))  # one shared int object per id
        self.up, self.down = [[] for _ in ids], [[] for _ in ids]
        for a, b in covers:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"cover ({a}, {b}) has an id outside 0..{m - 1}")
            if a == b:
                raise ValueError("self-cover")
            self.up[a].append(ids[b])
            self.down[b].append(ids[a])
        for near in (*self.up, *self.down):
            near.sort()
            if len(set(near)) < len(near):  # a repeated cover
                near[:] = dict.fromkeys(near)
        self.linear_extension = self._toposort()
        self._downlists: list[list[int]] | None = None
        self._ranks: list[int] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[Hashable, int]:
        """The id of each element, built on first lookup; ValueError on
        duplicate elements."""
        return element_ids(self.elements)

    def _toposort(self) -> list[int]:
        m = len(self.elements)
        indeg = [len(self.down[i]) for i in range(m)]
        order = [i for i in range(m) if indeg[i] == 0]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in self.up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != m:
            raise ValueError("cover relation contains a cycle")
        return order

    # ----- order relation -----

    # The order pulled back along the identity, each direction computed on
    # first use, so a Mobius recursion, which reads only the down masks,
    # never builds the up masks.
    @cached_property
    def _downmasks(self) -> list[int]:
        return self.pull_back(enumerate(range(len(self))))

    @cached_property
    def _upmasks(self) -> list[int]:
        return self.pull_back(enumerate(range(len(self))), dual=True)

    def leq_index(self, i: int, j: int) -> bool:
        return bool(self._downmasks[j] >> i & 1)

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return self.leq_index(self.index[x], self.index[y])

    def downset_mask(self, i: int) -> int:
        return self._downmasks[i]

    def upset_mask(self, i: int) -> int:
        return self._upmasks[i]

    def down_lists(self) -> list[list[int]]:
        """For each index, the indices at or below it, increasing."""
        if self._downlists is None:
            self._downlists = [_bits(mask) for mask in self._downmasks]
        return self._downlists

    # ----- extrema and rank -----

    def minimal_indices(self) -> list[int]:
        return [i for i in range(len(self.elements)) if not self.down[i]]

    def maximal_indices(self) -> list[int]:
        return [i for i in range(len(self.elements)) if not self.up[i]]

    def bottom(self) -> Hashable:
        return self.elements[self._bottom_index()]

    def _bottom_index(self) -> int:
        return _only(self.minimal_indices(), "minimal")

    def top(self) -> Hashable:
        return self.elements[_only(self.maximal_indices(), "maximal")]

    def ranks(self) -> list[int]:
        """Rank of each element, requiring every cover to raise rank by
        exactly one and all minimal elements to sit at rank zero."""
        if self._ranks is None:
            m = len(self.elements)
            rank = [0] * m
            for i in self.linear_extension:
                if self.down[i]:
                    values = {rank[j] + 1 for j in self.down[i]}
                    if len(values) != 1:
                        raise ValueError(
                            f"poset is not graded at element {self.elements[i]!r}"
                        )
                    rank[i] = values.pop()
            self._ranks = rank
        return self._ranks

    def height(self) -> int:
        return max(self.ranks(), default=0)

    def rank_of(self, x: Hashable) -> int:
        return self.ranks()[self.index[x]]

    # ----- Mobius and Whitney numbers -----

    def mobius_from_bottom(self) -> dict[Hashable, int]:
        """mu(bottom, x) for every x, by rank-ordered recursion."""
        return dict(zip(self.elements, self._mobius_ids()))

    def _mobius_ids(self, kept: Sequence[bool] | None = None) -> list[int]:
        """mu(bottom, x) by id in the subposet of the kept ids (all ids
        when kept is None); every other id holds 0, so it drops out of
        the sums above it.  The bottom must be kept."""
        bottom_i = self._bottom_index()
        down_lists = self.down_lists()
        mu = [0] * len(self.elements)
        for i in self.linear_extension:
            if i == bottom_i:
                mu[i] = 1
            elif kept is None or kept[i]:
                # mu[i] is still 0, so summing over i itself adds nothing
                mu[i] = -sum(map(mu.__getitem__, down_lists[i]))
        return mu

    def mobius_hat(self) -> int:
        """mu(bottom, top) after adjoining an artificial top element."""
        return -sum(self._mobius_ids())

    def _by_rank(self, values: Iterable[int]) -> list[int]:
        """Sums of values, given per id, over each rank."""
        out = [0] * (self.height() + 1)
        for r, value in zip(self.ranks(), values):
            out[r] += value
        return out

    def whitney_second(self) -> list[int]:
        return self._by_rank(repeat(1))

    def whitney_first(self) -> list[int]:
        """Rank-wise sums of mu(bottom, x)."""
        return self._by_rank(self._mobius_ids())

    # ----- chains -----

    def _multichains_ending_at(self, k: int) -> list[int]:
        """Per element x, the number of multichains x_1 <= ... <= x_k = x."""
        down_lists = self.down_lists()
        vec = [1] * len(self.elements)
        for _ in range(k - 1):
            vec = [sum(vec[j] for j in down_lists[i]) for i in range(len(vec))]
        return vec

    def zeta_count(self, k: int) -> int:
        """Number of k-multichains x_1 <= ... <= x_k; k = 0 gives 1."""
        return sum(self._multichains_ending_at(k)) if k else 1

    def multichain_rank_counts(self, k: int) -> list[int]:
        """Number of k-multichains, k >= 1, grouped by the rank of their
        top element."""
        return self._by_rank(self._multichains_ending_at(k))

    def count_maximal_chains(self) -> int:
        paths = [0] * len(self.elements)
        for i in reversed(self.linear_extension):
            paths[i] = sum(paths[j] for j in self.up[i]) if self.up[i] else 1
        return sum(paths[i] for i in self.minimal_indices())

    def maximal_chains(self) -> Iterator[tuple[Hashable, ...]]:
        """All maximal chains, as element tuples from minimal to maximal."""
        elements = self.elements
        for i in self.minimal_indices():
            for chain in _chains(self.up, i):
                yield tuple(map(elements.__getitem__, chain))

    # ----- derived posets -----

    def induced(self, keep: Iterable[Hashable]) -> "FinitePoset":
        """Induced subposet on a subset of elements, with covers recomputed
        from the full order relation."""
        keep_idx = sorted(self.index[x] for x in keep)
        below = self.pull_back(enumerate(keep_idx))
        return FinitePoset.from_down_masks(
            self._take(keep_idx), [below[i] for i in keep_idx]
        )

    def _take(self, ids: list[int]) -> Sequence[Hashable]:
        """The elements of the given ids, in order; lazily when the
        element list is a LazyElements."""
        elements = self.elements
        if isinstance(elements, LazyElements):
            return LazyElements(len(ids), lambda t: elements[ids[t]])
        return [elements[i] for i in ids]

    def pull_back(
        self, coords: Iterable[tuple[int, int]], dual: bool = False
    ) -> list[int]:
        """For the pairs (i, c) of coords, derived id i sent to id c, the
        mask of derived ids sent at or below each id (at or above it when
        dual), one OR per cover.  A derived order that intersects such
        orders has ANDs of these masks as its down masks."""
        pull = [0] * len(self.elements)
        for i, c in coords:
            pull[c] |= 1 << i
        order, below = self.linear_extension, self.down
        if dual:
            order, below = order[::-1], self.up
        for b in order:
            mask = pull[b]
            for c in below[b]:
                mask |= pull[c]
            pull[b] = mask
        return pull

    def _restrict(self, keep: list[int]) -> "FinitePoset":
        """Subposet on the kept indices, in increasing order, with the
        covers among them; callers keep sets on which those are exactly
        the covers of the subposet."""
        new, up = {i: t for t, i in enumerate(keep)}, self.up
        covers = ((new[i], new[j]) for i in keep for j in up[i] if j in new)
        return FinitePoset(self._take(keep), covers)

    def interval(self, a: Hashable, b: Hashable) -> "FinitePoset":
        """Closed interval [a, b]; its covers are the restricted covers."""
        mask = self._upmasks[self.index[a]] & self._downmasks[self.index[b]]
        return self._restrict(_bits(mask))

    def without_bottom(self) -> "FinitePoset":
        """Drop the unique minimum; remaining covers are unchanged."""
        self.bottom()  # ValueError unless the minimum is unique
        return self._restrict([i for i in range(len(self)) if self.down[i]])

    def without_top(self) -> "FinitePoset":
        self.top()
        return self._restrict([i for i in range(len(self)) if self.up[i]])

    # ----- lattice operations -----

    def join_index(self, i: int, j: int) -> int | None:
        """Index of the least upper bound, or None when it does not exist:
        the common upper bound whose up-set is all the common upper bounds."""
        up = self._upmasks
        return _first_with_mask(up[i] & up[j], up)

    def meet_index(self, i: int, j: int) -> int | None:
        down = self._downmasks
        return _first_with_mask(down[i] & down[j], down)

    def join(self, x: Hashable, y: Hashable) -> Hashable | None:
        k = self.join_index(self.index[x], self.index[y])
        return None if k is None else self.elements[k]

    def meet(self, x: Hashable, y: Hashable) -> Hashable | None:
        k = self.meet_index(self.index[x], self.index[y])
        return None if k is None else self.elements[k]

    def is_lattice(self) -> bool:
        m = len(self.elements)
        for i in range(m):
            for j in range(i + 1, m):
                if self.leq_index(i, j) or self.leq_index(j, i):
                    continue
                if self.join_index(i, j) is None or self.meet_index(i, j) is None:
                    return False
        return True

    # ----- serialization -----

    def cover_index_pairs(self) -> list[tuple[int, int]]:
        """The cover id pairs (low, high), sorted: the up lists in id order."""
        return [(i, j) for i, ups in enumerate(self.up) for j in ups]

    def _labels(self, labels: Iterable[object] | None) -> Iterable[object]:
        return map(str, self.elements) if labels is None else labels

    def to_json(
        self, labels: Iterable[object] | None = None, **meta: object
    ) -> dict:
        """The meta entries, one label per id (str of each element by
        default) and the cover id pairs."""
        covers = [[i, j] for i, j in self.cover_index_pairs()]
        return {**meta, "elements": list(self._labels(labels)), "covers": covers}

    def to_dot(self, labels: Iterable[str] | None = None) -> str:
        """DOT text with one label per id (str of each element by default)."""
        lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
        for i, label in enumerate(self._labels(labels)):
            lines.append(f'  v{i} [label="{label}"];')
        lines += (f"  v{i} -> v{j};" for i, j in self.cover_index_pairs())
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_down_masks(
        cls, elements: Sequence[Hashable], down: Sequence[int]
    ) -> "FinitePoset":
        """Build a poset from its down masks, down[i] being the mask of
        the indices at or below i, i included.  The covers of i are the
        maximal elements of the rest of its down mask: visited from the
        largest down mask to the smallest, an element is a cover unless
        it lies below a cover already found.  No element is hashed: as
        with the constructor, duplicates surface at the first lookup."""
        size = [mask.bit_count() for mask in down]

        def covers() -> Iterator[tuple[int, int]]:
            for i, mask in enumerate(down):
                below = 1 << i
                rest = sorted(_bits(mask ^ below), key=size.__getitem__, reverse=True)
                for j in rest:
                    if not below >> j & 1:
                        yield j, i
                        below |= down[j]

        return cls(elements, covers())

    @classmethod
    def from_leq(
        cls,
        elements: Sequence[Hashable],
        leq: Callable[[int, int], bool],
    ) -> "FinitePoset":
        """Build a poset from a comparison oracle on indices, leq(i, j)
        being whether elements[i] <= elements[j].  This is the comparator
        route: it calls leq on all ordered pairs of distinct indices, so
        it is quadratic in the number of elements, and hands the down
        masks to from_down_masks.  Builders whose order is pulled back
        from posets already built use pull_back and from_down_masks.
        ValueError on duplicate elements, checked before any call."""
        index = element_ids(elements)
        m = len(elements)
        down = [
            sum(1 << j for j in range(m) if j == i or leq(j, i)) for i in range(m)
        ]
        poset = cls.from_down_masks(elements, down)
        poset.index = index
        return poset


def _refinement_colors(poset: FinitePoset) -> list[int]:
    """Stable coloring of elements by iterated cover-degree signatures."""
    m = len(poset.elements)
    colors = [0] * m
    classes = 0
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in poset.up[i])),
                tuple(sorted(colors[j] for j in poset.down[i])),
            )
            for i in range(m)
        ]
        palette = {s: c for c, s in enumerate(sorted(set(signatures)))}
        colors = [palette[s] for s in signatures]
        if len(palette) == classes:
            return colors
        classes = len(palette)


def posets_isomorphic(first: FinitePoset, second: FinitePoset) -> bool:
    """Whether two posets are isomorphic, by backtracking over a color
    refinement of the cover relations.  Meant for small posets; the
    refinement usually cuts the search down to almost nothing."""
    if len(first.elements) != len(second.elements):
        return False
    colors_a = _refinement_colors(first)
    colors_b = _refinement_colors(second)
    if sorted(colors_a) != sorted(colors_b):
        return False
    m = len(first.elements)
    candidates: dict[int, list[int]] = {}
    for j in range(m):
        candidates.setdefault(colors_b[j], []).append(j)
    order = sorted(
        range(m), key=lambda i: (len(candidates[colors_a[i]]), colors_a[i], i)
    )
    image = [0] * m
    used = [False] * m

    def assign(pos: int) -> bool:
        if pos == m:
            return True
        i = order[pos]
        for j in candidates[colors_a[i]]:
            if used[j]:
                continue
            if all(
                first.leq_index(order[q], i) == second.leq_index(image[order[q]], j)
                and first.leq_index(i, order[q])
                == second.leq_index(j, image[order[q]])
                for q in range(pos)
            ):
                image[i] = j
                used[j] = True
                if assign(pos + 1):
                    return True
                used[j] = False
        return False

    return assign(0)


def _chains(
    order: list[list[int]] | dict[int, list[int]], start: int = 0
) -> Iterator[tuple[int, ...]]:
    """Maximal chains from id ``start`` as id tuples, by a depth-first walk
    over the cover lists in their given order (so in the chain order of a
    cover order); ``order`` needs only the ids reachable from ``start``,
    and a start with no cover is a one-element chain."""
    chain: list[int] = []
    stack = [iter((start,))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            del chain[-1:]
        elif order[nxt]:
            chain.append(nxt)
            stack.append(iter(order[nxt]))
        else:
            yield (*chain, nxt)


def _only(ids: list[int], kind: str) -> int:
    if len(ids) != 1:
        raise ValueError(f"poset has {len(ids)} {kind} elements")
    return ids[0]


def _first_with_mask(mask: int, masks: list[int]) -> int | None:
    """Lowest index u set in mask with masks[u] == mask, or None."""
    rest = mask
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if masks[u] == mask:
            return u
        rest ^= low
    return None


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
