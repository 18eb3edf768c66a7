"""Elements of the parking poset in four interchangeable representations.

An element is stored canonically as a pair (partition, sigma): a
noncrossing partition of [n] together with the unique permutation that is
increasing on each block.  The other three faces of the same object are

* the triple (partition, rho, labels), where labels assigns to each block
  B the set sigma(B) and rho is the set partition formed by those sets;
* the parking word w with w_i = min B for the block B whose label set
  contains i;
* the labeled plane tree obtained from the arch decomposition of the
  partition, with label sets transported by sigma.

Conversions between word and tree are also available directly, through
the capacity construction on the sequence E_1, ..., E_{kn+1} of letter
fibers.  The two routes into the tree form are kept independent so tests
can play them against each other.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .nc import (
    NoncrossingPartition,
    Permutation,
    SetPartition,
    enumerate_noncrossing,
    is_interval_partition,
    lukasiewicz_decode,
)
from .numbers import parking_count

MAX_ELEMENT_ENUMERATION_N = 7


class Tree:
    """An immutable plane tree whose nodes carry disjoint label sets.

    Leaves are nodes with an empty label and no children.  A tree is valid
    for parameter k when every node has exactly k * |label| children and
    the labels partition [n], n being the total label weight.
    """

    __slots__ = ("label", "children", "weight", "_hash")

    def __init__(self, label: Iterable[int], children: Iterable["Tree"] = ()):
        self.label = tuple(sorted(label))
        self.children = tuple(children)
        self.weight = len(self.label) + sum(c.weight for c in self.children)
        self._hash = hash((self.label, self.children))

    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tree)
            and self._hash == other._hash
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_leaf():
            return f"Tree({list(self.label)})"
        return f"Tree({list(self.label)}, {list(self.children)})"

    def preorder(self) -> Iterator["Tree"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_json(self) -> dict:
        return {
            "label": list(self.label),
            "children": [c.to_json() for c in self.children],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tree":
        return cls(data["label"], [cls.from_json(c) for c in data["children"]])

    @classmethod
    def leaf(cls) -> "Tree":
        return cls((), ())


def validate_tree(tree: Tree, k: int = 1) -> int:
    """Check the k-tree conditions; return n, the total label weight.

    Every node must have exactly k * |label| children and the labels must
    partition [n].  Raises ValueError on any violation.
    """
    labels: list[int] = []
    for node in tree.preorder():
        if len(node.children) != k * len(node.label):
            raise ValueError(
                f"node with label {node.label} has {len(node.children)} "
                f"children, expected {k * len(node.label)}"
            )
        labels.extend(node.label)
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError("labels do not partition [n]")
    return n


def is_parking_word(word: Sequence[int], k: int = 1) -> bool:
    """Parking condition: the i-th smallest letter is at most k(i-1) + 1."""
    if any(w < 1 for w in word):
        return False
    return all(w <= k * i + 1 for i, w in enumerate(sorted(word)))


class _Slot:
    __slots__ = ("label", "children", "parent", "capacity")

    def __init__(self, label, k):
        self.label = label
        self.children = []
        self.parent = None
        self.capacity = k * len(label)


def tree_from_word(word: Sequence[int], k: int = 1) -> Tree:
    """Capacity construction of the k-tree of a parking word.

    The fibers E_i = {positions j : w_j = i}, for i = 1, ..., kn + 1 (the
    last fiber is empty padding), are attached in order: each new node
    hangs from the deepest node on the current rightmost path that still
    has fewer than k * |label| children.
    """
    n = len(word)
    if not is_parking_word(word, k):
        raise ValueError(f"{list(word)!r} is not a parking word for k={k}")
    if n == 0:
        return Tree.leaf()
    fibers: list[list[int]] = [[] for _ in range(k * n + 1)]
    for pos, letter in enumerate(word, start=1):
        fibers[letter - 1].append(pos)
    nodes = [_Slot(f, k) for f in fibers]
    for prev, node in zip(nodes, nodes[1:]):
        attach = prev
        while len(attach.children) >= attach.capacity:
            attach = attach.parent
            if attach is None:
                raise RuntimeError("capacity walk escaped the root")
        attach.children.append(node)
        node.parent = attach

    def freeze(slot: _Slot) -> Tree:
        return Tree(slot.label, [freeze(c) for c in slot.children])

    tree = freeze(nodes[0])
    if any(len(s.children) != s.capacity for s in nodes):
        raise RuntimeError("capacity construction left unfilled nodes")
    return tree


def word_from_tree(tree: Tree, k: int = 1) -> tuple[int, ...]:
    """Inverse of tree_from_word: the j-th node in preorder is the fiber
    of letter j."""
    n = validate_tree(tree, k)
    word = [0] * n
    for time, node in enumerate(tree.preorder(), start=1):
        for pos in node.label:
            word[pos - 1] = time
    return tuple(word)


class ParkingElement:
    """An element of the parking poset on [n], canonically a pair.

    partition is noncrossing and sigma is increasing on each block; the
    label set of a block B is sigma(B).
    """

    __slots__ = ("partition", "sigma", "_word", "_eta")

    def __init__(self, partition: NoncrossingPartition, sigma: Permutation):
        if partition.n != sigma.n:
            raise ValueError("partition and permutation sizes differ")
        images = sigma.word
        for block in partition.blocks:
            last = 0
            for x in block:
                if images[x - 1] <= last:
                    raise ValueError("sigma must be increasing on each block")
                last = images[x - 1]
        self.partition = partition
        self.sigma = sigma
        self._word: tuple[int, ...] | None = None
        self._eta: tuple[tuple[int, ...], ...] | None = None

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def rank(self) -> int:
        return len(self.partition.blocks) - 1

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Label sets aligned with partition.blocks, each sorted."""
        images = self.sigma.word
        return tuple(
            tuple([images[x - 1] for x in block]) for block in self.partition.blocks
        )

    @property
    def rho(self) -> SetPartition:
        """The second partition of the triple form: the label sets."""
        return SetPartition(self.n, self.labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParkingElement)
            and self.partition == other.partition
            and self.sigma == other.sigma
        )

    def __hash__(self) -> int:
        return hash((self.partition, self.sigma))

    def __repr__(self) -> str:
        w = self.word
        if self.n < 10:
            return f"ParkingElement({''.join(map(str, w))})"
        return f"ParkingElement({list(w)})"

    @property
    def sort_key(self) -> tuple:
        """Deterministic key: rank first, then the parking word."""
        return (self.rank, self.word)

    # ----- triple form -----

    @classmethod
    def from_triple(
        cls, partition: NoncrossingPartition, labels: Iterable[Iterable[int]]
    ) -> "ParkingElement":
        """The element whose block partition.blocks[t] has label set
        labels[t].  One pass fills both sigma, which sends each block
        increasingly onto its sorted label set, and the parking word, which
        the element keeps."""
        labels = [sorted(lab) for lab in labels]
        blocks = partition.blocks
        if len(labels) != len(blocks):
            raise ValueError("one label set per block is required")
        n = partition.n
        images = [0] * n
        word = [0] * n
        try:
            for block, lab in zip(blocks, labels):
                if len(lab) != len(block):
                    raise ValueError(
                        f"label set {lab} does not match block {block} in size"
                    )
                low = block[0]
                for x, y in zip(block, lab):
                    images[x - 1] = y
                    word[y - 1] = low
        except (IndexError, TypeError):
            raise ValueError(f"label sets {labels} do not partition [{n}]") from None
        elem = cls(partition, Permutation(images))
        elem._word = tuple(word)
        return elem

    def to_triple(self) -> tuple[NoncrossingPartition, SetPartition, tuple]:
        return (self.partition, self.rho, self.labels)

    # ----- word form -----

    @property
    def word(self) -> tuple[int, ...]:
        """Parking word: position i carries min B for the block B with
        i in the label set of B."""
        if self._word is None:
            images = self.sigma.word
            w = [0] * self.n
            for block in self.partition.blocks:
                for x in block:
                    w[images[x - 1] - 1] = block[0]
            self._word = tuple(w)
        return self._word

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "ParkingElement":
        n = len(word)
        if not is_parking_word(word):
            raise ValueError(f"{list(word)!r} is not a parking word")
        counts = [0] * n
        for w in word:
            counts[w - 1] += 1
        partition = lukasiewicz_decode(counts)
        labels: list[list[int]] = [[] for _ in partition.blocks]
        for pos, w in enumerate(word, start=1):
            labels[partition.block_index_of(w)].append(pos)
        return cls.from_triple(partition, labels)

    # ----- tree form, arch decomposition route -----

    def to_tree(self) -> Tree:
        """Arch decomposition: the block of the smallest element of a
        region becomes the root of that region's subtree, and the gaps
        between its consecutive elements (plus the tail) become the
        ordered child regions."""
        return _arch_tree(self.partition, self.sigma.word, tuple(range(1, self.n + 1)))

    @classmethod
    def from_tree(cls, tree: Tree) -> "ParkingElement":
        """Inverse arch decomposition.  Ground positions are recovered
        from subtree weights: consecutive block elements differ by the
        weight of the region between them plus one."""
        n = validate_tree(tree, k=1)
        if n == 0:
            return cls(NoncrossingPartition(0, []), Permutation(()))
        blocks: list[list[int]] = []
        sigma_word = [0] * n
        _place(tree, 1, blocks, sigma_word)
        return cls(NoncrossingPartition(n, blocks), Permutation(sigma_word))

    # ----- function form -----

    def to_function(self) -> tuple[int, ...]:
        """The nilpotent map sending every element labeling a node to the
        parent slot it hangs from: the j-th child of a node corresponds to
        the j-th smallest element of that node's label, and root labels
        map to 0."""
        tree = self.to_tree()
        f = [0] * self.n
        stack = [(tree, 0)]
        while stack:
            node, anchor = stack.pop()
            for x in node.label:
                f[x - 1] = anchor
            for child, slot in zip(node.children, node.label):
                stack.append((child, slot))
        return tuple(f)

    @classmethod
    def from_function(cls, f: Sequence[int]) -> "ParkingElement":
        n = len(f)
        fibers: dict[int, list[int]] = {v: [] for v in range(n + 1)}
        for x, v in enumerate(f, start=1):
            if not 0 <= v <= n:
                raise ValueError("function values must lie in 0..n")
            fibers[v].append(x)

        building: set[int] = set()

        def grow(anchor: int) -> Tree:
            if anchor in building:
                raise ValueError("function is not nilpotent")
            building.add(anchor)
            label = fibers[anchor]
            node = Tree(label, [grow(slot) for slot in label])
            building.discard(anchor)
            return node

        tree = grow(0)
        if tree.weight != n:
            raise ValueError("function is not nilpotent")
        return cls.from_tree(tree)

    # ----- group action -----

    def act(self, perm: Permutation) -> "ParkingElement":
        """The symmetric group acts on label sets only: the new label set
        of a block B is perm applied to the old one."""
        if perm.n != self.n:
            raise ValueError("permutation size mismatch")
        return ParkingElement.from_triple(
            self.partition, [[perm(y) for y in lab] for lab in self.labels]
        )

    # ----- order helpers -----

    def eta(self) -> tuple[tuple[int, ...], ...]:
        """eta[v-1] is the block whose label set contains v, i.e. the
        block of sigma^{-1}(v)."""
        if self._eta is None:
            inv = self.sigma.inverse()
            self._eta = tuple(
                self.partition.block_of(inv(v)) for v in range(1, self.n + 1)
            )
        return self._eta

    # ----- distinguished elements -----

    @classmethod
    def bottom(cls, n: int) -> "ParkingElement":
        return cls(NoncrossingPartition.bottom(n), Permutation.identity(n))

    @classmethod
    def from_permutation_top(cls, perm: Permutation) -> "ParkingElement":
        """The maximal element with all blocks singletons and label sets
        read off from perm."""
        return cls(NoncrossingPartition.top(perm.n), perm)

    def is_maximal(self) -> bool:
        return len(self.partition.blocks) == self.n

    # ----- primality -----

    def is_prime(self) -> bool:
        """True when 1 and n lie in the same block.

        Equivalently, the parking word has strictly more than j letters
        at most j for every j < n, or the rightmost child of the root of
        the tree is a leaf; the tests check all three criteria against
        each other exhaustively for n <= 6.
        """
        if self.n == 0:
            return False
        return self.partition.block_of(1) == self.partition.block_of(self.n)

    # ----- right combs and set compositions -----

    def is_right_comb(self) -> bool:
        """True when the partition is an interval partition, or
        equivalently when every non-rightmost child of every tree node is
        a leaf; the tests check the two criteria against each other
        exhaustively for n <= 6."""
        return is_interval_partition(self.partition)

    def to_composition(self) -> tuple[tuple[int, ...], ...]:
        """Read the label sets down the rightmost branch of the tree.
        Only defined for right combs."""
        if not self.is_right_comb():
            raise ValueError(f"{self!r} is not a right comb")
        parts = []
        node = self.to_tree()
        while not node.is_leaf():
            parts.append(node.label)
            node = node.children[-1]
        return tuple(parts)

    @classmethod
    def from_composition(
        cls, n: int, parts: Sequence[Iterable[int]]
    ) -> "ParkingElement":
        """Build the right comb whose rightmost-branch labels are the
        given ordered set composition of [n]."""
        parts = [tuple(sorted(p)) for p in parts]
        node = Tree.leaf()
        for part in reversed(parts):
            node = Tree(part, [Tree.leaf()] * (len(part) - 1) + [node])
        element = cls.from_tree(node)
        if element.n != n:
            raise ValueError("composition does not cover [n]")
        return element


# The two recursions of the arch decomposition live at module level, not
# as closures: a recursive closure is a reference cycle, so everything it
# holds would wait for the cyclic garbage collector instead of being
# freed when the call returns.


def _arch_tree(
    partition: NoncrossingPartition, images: Sequence[int], region: tuple[int, ...]
) -> Tree:
    """The subtree of a region of [n] under ParkingElement.to_tree."""
    if not region:
        return Tree.leaf()
    block = partition.block_of(region[0])
    children = []
    for j, e in enumerate(block):
        hi = block[j + 1] if j + 1 < len(block) else region[-1] + 1
        children.append(
            _arch_tree(partition, images, tuple(x for x in region if e < x < hi))
        )
    return Tree([images[x - 1] for x in block], children)


def _place(node: Tree, start: int, blocks: list, sigma_word: list) -> None:
    """Place the block of node from position start on, and its subtrees
    in the gaps, for ParkingElement.from_tree."""
    block = []
    e = start
    for child, letter in zip(node.children, node.label):
        block.append(e)
        sigma_word[e - 1] = letter
        if not child.is_leaf():
            _place(child, e + 1, blocks, sigma_word)
        e = e + child.weight + 1
    blocks.append(block)


def distributions(
    elements: Sequence[int], sizes: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to split `elements` into an ordered tuple of disjoint
    subsets with the prescribed sizes."""
    if not sizes:
        yield ()
        return
    rest_sizes = sizes[1:]
    pool = tuple(elements)
    for first in combinations(pool, sizes[0]):
        taken = set(first)
        remaining = tuple(x for x in pool if x not in taken)
        for rest in distributions(remaining, rest_sizes):
            yield (first,) + rest


def enumerate_elements(n: int) -> Iterator[ParkingElement]:
    """All (n+1)^(n-1) elements of the parking poset on [n].

    Runs over noncrossing partitions and all ways of distributing [n] as
    label sets of matching sizes.  Guarded to n <= 7.
    """
    if n > MAX_ELEMENT_ENUMERATION_N:
        raise ValueError(
            f"enumerate_elements is guarded to n <= {MAX_ELEMENT_ENUMERATION_N}"
        )
    ground = range(1, n + 1)
    for partition in enumerate_noncrossing(n):
        sizes = [len(b) for b in partition.blocks]
        for labels in distributions(ground, sizes):
            yield ParkingElement.from_triple(partition, labels)


def count_elements(n: int) -> int:
    return parking_count(n) if n >= 1 else 1


def enumerate_trees(n: int, k: int = 1) -> Iterator[Tree]:
    """Direct recursive generation of all valid k-trees on [n]; a slow
    oracle kept independent of the word and pair routes.  Guarded to
    n * k <= 10."""
    if n * k > 10:
        raise ValueError("enumerate_trees is guarded to n * k <= 10")

    def subsets(pool: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for r in range(1, len(pool) + 1):
            yield from combinations(pool, r)

    def split(
        pool: tuple[int, ...], parts: int
    ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if parts == 0:
            if not pool:
                yield ()
            return
        if parts == 1:
            yield (pool,)
            return
        for first_mask in range(2 ** len(pool)):
            first = tuple(x for i, x in enumerate(pool) if first_mask >> i & 1)
            rest = tuple(x for i, x in enumerate(pool) if not first_mask >> i & 1)
            for tail in split(rest, parts - 1):
                yield (first,) + tail

    def grow(pool: tuple[int, ...]) -> Iterator[Tree]:
        if not pool:
            yield Tree.leaf()
            return
        for label in subsets(pool):
            taken = set(label)
            rest = tuple(x for x in pool if x not in taken)
            for pieces in split(rest, k * len(label)):
                for kids in product(*(grow(p) for p in pieces)):
                    yield Tree(label, kids)

    if n == 0:
        yield Tree.leaf()
        return
    yield from grow(tuple(range(1, n + 1)))
