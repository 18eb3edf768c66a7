"""Set partitions, noncrossing partitions, and permutations on [n].

Conventions used package-wide:

* Partitions of [n] = {1, ..., n} are stored canonically as a tuple of
  blocks, each block a sorted tuple, blocks sorted by their minimum.
* The noncrossing partition lattice NC_n is ordered so that the one-block
  partition is the bottom element and the all-singletons partition is the
  top element: p <= q means q refines p.
* Permutations act on [n]; composition is right-to-left, so (s * t)(x)
  means s(t(x)).
* A partition embeds into the symmetric group by turning each block into
  the cycle that walks the block in increasing order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

MAX_ENUMERATION_N = 12


class SetPartition:
    """An immutable partition of [n] in canonical form."""

    __slots__ = ("n", "blocks", "_block_index", "_hash")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        # One pass over the input records the input block of each element,
        # rejecting elements outside [n], repeated elements and empty
        # blocks.  One pass over [n] then lists each block in increasing
        # order and the blocks by their minima, rejecting missing elements,
        # and turns the record into the index of each element's block.
        index = [-1] * (n + 1)
        count = 0
        for block in blocks:
            empty = True
            for x in block:
                if not 0 < x <= n or index[x] >= 0:
                    raise ValueError(f"{x!r} is outside [{n}] or in two blocks")
                index[x] = count
                empty = False
            if empty:
                raise ValueError("a block is empty")
            count += 1
        position = [-1] * count
        canonical: list[list[int]] = []
        for x in range(1, n + 1):
            b = index[x]
            if b < 0:
                raise ValueError(f"{x} lies in no block of a partition of [{n}]")
            p = position[b]
            if p < 0:
                p = position[b] = len(canonical)
                canonical.append([x])
            else:
                canonical[p].append(x)
            index[x] = p
        self.n = n
        self.blocks = tuple(map(tuple, canonical))
        self._block_index = index
        self._hash = hash((n, self.blocks))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "/".join("".join(map(str, b)) if self.n < 10 else str(list(b)) for b in self.blocks)
        return f"{type(self).__name__}({self.n}, {inner})"

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> tuple[int, ...]:
        """The block containing x, for x in [n], as a sorted tuple."""
        return self.blocks[self._block_index[x]]

    def block_index_of(self, x: int) -> int:
        """The position in blocks of the block containing x, for x in [n]."""
        return self._block_index[x]

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self is contained in a block of other."""
        if self.n != other.n:
            raise ValueError("partitions live on different ground sets")
        index = other._block_index
        for block in self.blocks:
            target = index[block[0]]
            for x in block:
                if index[x] != target:
                    return False
        return True

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "SetPartition":
        return cls(int(data["n"]), data["blocks"])

    @classmethod
    def bottom(cls, n: int) -> "SetPartition":
        """The one-block partition 0_n."""
        return cls(n, [range(1, n + 1)])

    @classmethod
    def top(cls, n: int) -> "SetPartition":
        """The all-singletons partition 1_n."""
        return cls(n, [[i] for i in range(1, n + 1)])


def _blocks_cross(b1: Sequence[int], b2: Sequence[int]) -> bool:
    """Whether two disjoint sorted blocks with min b1 < min b2 cross.

    The blocks do not cross when every element of b2 falls into the same
    gap of b1, where the gap of x is the number of elements of b1 below x.
    Two distinct gaps force an alternation i < j < k < l with i, k in b1
    and j, l in b2.  Gaps grow along the sorted b2, so its first and last
    elements decide.
    """
    return bisect_left(b1, b2[0]) != bisect_left(b1, b2[-1])


def is_noncrossing(partition: SetPartition) -> bool:
    """One left-to-right scan of [n] with a stack of the open blocks.

    A block opens at its minimum and closes at its maximum.  Every other
    element must belong to the innermost open block: if it belongs to a
    block p below the top q of the stack, then min p < min q < x < max q
    with x in p is an alternation.  Conversely two crossing blocks fail
    the scan at the first element that comes back to the outer one.
    """
    blocks = partition.blocks
    index = partition._block_index
    stack: list[int] = []
    for x in range(1, partition.n + 1):
        p = index[x]
        block = blocks[p]
        if block[0] == x:
            if len(block) > 1:
                stack.append(p)
        elif stack[-1] != p:
            return False
        elif block[-1] == x:
            stack.pop()
    return True


class NoncrossingPartition(SetPartition):
    """A set partition validated to be noncrossing on construction."""

    __slots__ = ()

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        super().__init__(n, blocks)
        if not is_noncrossing(self):
            raise ValueError(f"partition {self.blocks!r} is crossing")


def noncrossing_closure(n: int, groups: Iterable[Iterable[int]]) -> NoncrossingPartition:
    """The finest noncrossing partition of [n] with each group inside one block.

    Union-find joins each group into one block; then any two crossing
    blocks merge until none cross.  Every noncrossing partition in which
    the groups share blocks must make the same merges, so the result is
    the unique finest one.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        group = list(group)
        for a, b in zip(group, group[1:]):
            parent[find(b)] = find(a)
    by_root: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        by_root.setdefault(find(x), []).append(x)
    # Blocks stay sorted by minimum: a merge keeps the earlier minimum.
    blocks = sorted(by_root.values())
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(blocks)), 2):
            if _blocks_cross(blocks[i], blocks[j]):
                blocks[i] = sorted(blocks[i] + blocks.pop(j))
                merged = True
                break
    return NoncrossingPartition(n, blocks)


def nc_leq(p: SetPartition, q: SetPartition) -> bool:
    """Order relation of NC_n: p <= q when q refines p."""
    return q.refines(p)


class Permutation:
    """A permutation of [n], stored as the tuple of images (s(1), ..., s(n))."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        word = tuple(word)
        n = len(word)
        seen = [False] * (n + 1)
        for y in word:
            if not 0 < y <= n or seen[y]:
                raise ValueError(f"{word!r} is not a permutation word")
            seen[y] = True
        self.word = word

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, x: int) -> int:
        return self.word[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(x) = self(other(x))."""
        return Permutation(tuple(self.word[y - 1] for y in other.word))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for i, y in enumerate(self.word, start=1):
            inv[y - 1] = i
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(("perm", self.word))

    def __repr__(self) -> str:
        return f"Permutation({list(self.word)})"

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its minimum, cycles
        sorted by minimum, fixed points included."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in weakly decreasing order."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def num_cycles(self) -> int:
        return len(self.cycles())

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        word = list(range(1, n + 1))
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                word[a - 1] = b
        return cls(word)


def class_representatives(n: int) -> list[Permutation]:
    """One permutation of each cycle type of S_n, the first in
    lexicographic order of images, listed by the label "3+1+1" of the
    cycle type in string order."""
    seen: dict[tuple[int, ...], Permutation] = {}
    for images in permutations(range(1, n + 1)):
        perm = Permutation(images)
        seen.setdefault(perm.cycle_type(), perm)
    return [seen[t] for t in sorted(seen, key=lambda t: "+".join(map(str, t)))]


def embed_permutation(partition: SetPartition) -> Permutation:
    """Each block becomes the cycle walking the block in increasing order."""
    word = [0] * partition.n
    for block in partition.blocks:
        for a, b in zip(block, block[1:] + block[:1]):
            word[a - 1] = b
    return Permutation(word)


def partition_from_permutation(perm: Permutation) -> NoncrossingPartition:
    """Inverse of embed_permutation, validated.

    The cycles of perm become blocks.  Raises ValueError when some cycle
    does not walk its support in increasing order or when the resulting
    partition is crossing, i.e. when perm is not the embedding of a
    noncrossing partition.
    """
    blocks = [sorted(c) for c in perm.cycles()]
    partition = NoncrossingPartition(perm.n, blocks)
    if embed_permutation(partition) != perm:
        raise ValueError(f"{perm!r} is not the embedding of a noncrossing partition")
    return partition


def _zero_cycle(n: int) -> Permutation:
    return embed_permutation(SetPartition.bottom(n))


def kreweras(p: SetPartition) -> NoncrossingPartition:
    """Kreweras complement K(p), via the cycle 0 composed with the inverse
    of the embedded partition."""
    nu = _zero_cycle(p.n) * embed_permutation(p).inverse()
    return partition_from_permutation(nu)


def kreweras_inverse(q: SetPartition) -> NoncrossingPartition:
    """Inverse Kreweras complement, so kreweras_inverse(kreweras(p)) == p."""
    nu = embed_permutation(q).inverse() * _zero_cycle(q.n)
    return partition_from_permutation(nu)


def relative_kreweras(p: SetPartition, t: SetPartition) -> NoncrossingPartition:
    """Kreweras complement of p relative to t, defined for p <= t in NC_n.

    The embedded permutation of the result is p * t^{-1}.  Relative to the
    top element this returns p itself, and relative to the bottom element
    on the left, relative_kreweras(bottom, t) == kreweras(t).
    """
    if not nc_leq(p, t):
        raise ValueError("relative complement needs p <= t")
    nu = embed_permutation(p) * embed_permutation(t).inverse()
    return partition_from_permutation(nu)


def lukasiewicz_encode(partition: SetPartition) -> tuple[int, ...]:
    """Word (a_1, ..., a_n) with a_i = |B| when i = min B and 0 otherwise."""
    word = [0] * partition.n
    for block in partition.blocks:
        word[block[0] - 1] = len(block)
    return tuple(word)


def lukasiewicz_decode(word: Sequence[int]) -> NoncrossingPartition:
    """Rebuild the unique noncrossing partition with the given encoding.

    Scan left to right keeping a stack of open slots: a letter c >= 1
    opens a new block and pushes c - 1 slots for it; a letter 0 fills the
    most recent open slot.  Raises ValueError on malformed words.
    """
    n = len(word)
    blocks: list[list[int]] = []
    stack: list[int] = []
    for i, a in enumerate(word, start=1):
        if a < 0:
            raise ValueError("letters must be nonnegative")
        if a >= 1:
            blocks.append([i])
            stack.extend([len(blocks) - 1] * (a - 1))
        else:
            if not stack:
                raise ValueError(f"no open block for position {i}")
            blocks[stack.pop()].append(i)
    if stack:
        raise ValueError("word left unfilled slots")
    return NoncrossingPartition(n, blocks)


def enumerate_noncrossing(n: int) -> Iterator[NoncrossingPartition]:
    """All noncrossing partitions of [n], by decoding Lukasiewicz words.

    Words (a_1, ..., a_n) of nonnegative letters with total n and partial
    sums a_1 + ... + a_j >= j biject with NC_n.  Guarded to n <= 12 to
    keep Catalan growth in check.
    """
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"enumerate_noncrossing is guarded to n <= {MAX_ENUMERATION_N}")
    if n == 0:
        yield NoncrossingPartition(0, [])
        return

    def rec(prefix: list[int], total: int) -> Iterator[NoncrossingPartition]:
        pos = len(prefix)
        if pos == n:
            yield lukasiewicz_decode(prefix)
            return
        lo = max(0, pos + 1 - total)
        for a in range(lo, n - total + 1):
            prefix.append(a)
            yield from rec(prefix, total + a)
            prefix.pop()

    yield from rec([], 0)


def enumerate_all_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n]; slow oracle, guarded to n <= 9."""
    if n > 9:
        raise ValueError("enumerate_all_partitions is guarded to n <= 9")

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i > n:
            yield SetPartition(n, [list(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def permutation_code(perm: Permutation) -> tuple[int, ...]:
    """Code (c_n, ..., c_1) with c_i = #{j < i : perm^{-1}(j) > perm^{-1}(i)}.

    Stored highest index first so that tuple comparison is the lexicographic
    order used to sort cover relations.  Codes are injective.
    """
    inv = perm.inverse()
    code = [
        sum(1 for j in range(1, i) if inv(j) > inv(i)) for i in range(1, perm.n + 1)
    ]
    return tuple(reversed(code))


def zero_prefix_length(code: tuple[int, ...]) -> int:
    """Length of the leading run of zeros in a code (c_n, ..., c_1).

    Equals the largest k such that the permutation fixes n-k+1, ..., n
    pointwise.
    """
    k = 0
    for c in code:
        if c != 0:
            break
        k += 1
    return k


def is_interval_partition(partition: SetPartition) -> bool:
    """True when every block is a set of consecutive integers."""
    return all(b[-1] - b[0] == len(b) - 1 for b in partition.blocks)
