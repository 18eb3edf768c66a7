"""Exact order-complex homology for finite posets.

The order complex of a finite poset is the simplicial complex whose faces
are the strict chains.  They are listed and counted on ids, one size at a
time: a chain grows by an id strictly above its top, read from the up
masks.  This module computes the reduced rational Betti numbers with
exact arithmetic: each boundary rank is the rank of the coboundary, its
transpose, from fraction-free sparse elimination over Python integers,
taken from the smallest chain size up with clearing between degrees, on
the dual poset.  Fraction-free elimination is exact because each step
replaces a row by an integer combination a*row - b*pivot with a nonzero,
which keeps the row space over Q.  Clearing is exact because each row it
leaves out lies in the span of the rows that stay, so no rank changes.
Most rows are apparent pivots: their smallest column, read from masks,
is new, and they are counted with no row built.

On top of the generic machinery sit the facts specific to the parking
function poset.  Its proper part has reduced homology concentrated in the
top dimension n - 2, of dimension (n - 1)^(n - 1), and the symmetric group
character on that homology can be computed two independent ways:

* by the Hopf trace formula, counting chains fixed by a permutation: by
  Philip Hall's theorem, one Mobius recursion over the ids it fixes, and
* by the closed product formula, sign times the prime parking character.

Both routes are exposed and the tests check them against each other.  The
Whitney modules, whose alternating sum also recovers the homology
character, are computed from Catalan weights over Kreweras complements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .nc import NoncrossingPartition, Permutation, kreweras
from .numbers import catalan
from .parking_order import build_pp_poset, pp_action_ids
from .poset import FinitePoset, _bits

# ----- strict chains -----


def count_chains_by_size(poset: FinitePoset) -> list[int]:
    """Numbers of strict chains with s elements, for s = 0, 1, ..., height+1.

    Entry 0 counts the empty chain, so it is always 1.  The list is what
    the flag f-vector of the order complex aggregates to: entry s is the
    number of faces of dimension s - 1.  One vector per size holds the
    number of s-chains topped by each element; the next is summed over
    the strict down lists, until a vector is all zero.
    """
    below = [[j for j in down if j != i] for i, down in enumerate(poset.down_lists())]
    totals = [1]
    vec = [1] * len(poset)
    while any(vec):
        totals.append(sum(vec))
        vec = [sum(map(vec.__getitem__, down)) for down in below]
    return totals


def chains_by_size(poset: FinitePoset) -> list[list[tuple[int, ...]]]:
    """All strict chains as id tuples from bottom to top, grouped by size.

    Entry s lists the chains with s elements, sorted; entry 0 is [()] for
    the empty chain, and sizes with no chains are left out at the tail.
    Layer s + 1 extends each chain of layer s by every id strictly above
    its top, in increasing order, so it comes out sorted.
    """
    above = [_bits(poset.upset_mask(i) ^ 1 << i) for i in range(len(poset))]
    layers: list[list[tuple[int, ...]]] = [[()]]
    layer = [(i,) for i in range(len(poset))]
    while layer:
        layers.append(layer)
        layer = [ch + (j,) for ch in layer for j in above[ch[-1]]]
    return layers


# ----- exact linear algebra -----


def sparse_rank(
    rows: Iterable[dict[int, int | Fraction]],
    pivots: dict[int, dict[int, int]] | None = None,
) -> int:
    """Rank over the rationals of a sparse matrix given as {column: value}
    rows with int or Fraction entries.

    Elimination is fraction-free: a row of ints is copied as it is, any
    other row is scaled by the lcm of its denominators, and a row meeting
    a pivot on its smallest column becomes a*row - b*pivot, with a and b
    the two leading entries divided by their gcd.  Since a is nonzero this
    keeps the row space over Q, so the rank is exact.  Each new pivot row
    is divided by its content, with the sign that makes its leading entry
    positive, and stored under its smallest column, in `pivots` when a
    dict is passed; the input rows are not modified.
    """
    if pivots is None:
        pivots = {}
    rank = 0
    for raw in rows:
        if all(isinstance(v, int) for v in raw.values()):
            row = {c: v for c, v in raw.items() if v}
        else:
            scale = lcm(*(v.denominator for v in raw.values()))
            row = {c: v.numerator * (scale // v.denominator) for c, v in raw.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                content = gcd(*row.values())
                if row[col] < 0:
                    content = -content
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
                pivots[col] = row
                rank += 1
                break
            a, b = piv[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                new = row.get(c, 0) - b * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return rank


class _Coboundary:
    """Rows of the coboundary of the order complex of a poset whose ids
    are a linear extension.  The row of a chain holds (-1)^p at each
    larger chain that puts an id in at position p, keyed by that chain as
    a tuple, so its columns sort in the order of their layer."""

    def __init__(self, poset: FinitePoset):
        m = len(poset)
        self.every = (1 << m) - 1
        self.below = [poset.downset_mask(i) ^ 1 << i for i in range(m)]
        self.above = [poset.upset_mask(i) ^ 1 << i for i in range(m)]

    def gaps(self, chain: tuple[int, ...]) -> Iterator[int]:
        """Masks of the ids that fit in at positions 0..len(chain)."""
        mask = self.every
        for x in chain:
            yield mask & self.below[x]
            mask = self.above[x]
        yield mask

    def leading(self, chain: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
        """(smallest column, its entry) of the chain's row from the masks
        alone, or (None, 0) for an empty row.  A larger chain first differs
        from the chain where its id goes in, and is smaller there, so the
        smallest column puts the smallest id of the first nonempty gap in.
        It runs once per chain, so it walks the gaps inline: the `gaps`
        generator costs more per call."""
        below = self.below
        gap, p = self.every, 0
        for x in chain:
            if gap & below[x]:
                gap &= below[x]
                break
            gap, p = self.above[x], p + 1
        if not gap:
            return None, 0
        low = (gap & -gap).bit_length() - 1
        return chain[:p] + (low,) + chain[p:], -1 if p % 2 else 1

    def row(self, chain: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        return {
            chain[:p] + (x,) + chain[p:]: -1 if p % 2 else 1
            for p, gap in enumerate(self.gaps(chain))
            for x in _bits(gap)
        }


class _Pivots(dict):
    """Pivot rows by column for `sparse_rank`, where an apparent pivot is
    held as (chain, sign) and its row built the first time `get` reads
    it; RuntimeError unless that row leads at its column with entry sign."""

    def __init__(self, coboundary: _Coboundary):
        super().__init__()
        self.coboundary = coboundary

    def get(self, col):
        piv = super().get(col)
        if type(piv) is tuple:
            chain, sign = piv
            row = self.coboundary.row(chain)
            if min(row, default=None) != col or row[col] != sign:
                raise RuntimeError(f"the row of chain {chain} does not lead at {col}")
            piv = self[col] = {c: sign * v for c, v in row.items()}
        return piv


def _top_down(poset: FinitePoset) -> FinitePoset:
    """The dual poset, with the same order complex, on ids that are a
    linear extension of it: ids that number every cover downward are
    kept, ids that number every cover upward are reversed, and any other
    poset is relabelled along its reversed linear extension."""
    m = len(poset)
    covers = [(j, i) for i, ups in enumerate(poset.up) for j in ups]
    if all(a < b for a, b in covers):
        new = range(m)
    elif all(a > b for a, b in covers):
        new = range(m - 1, -1, -1)
    else:
        new = {i: t for t, i in enumerate(reversed(poset.linear_extension))}
    dual = FinitePoset(range(m), ((new[a], new[b]) for a, b in covers))
    assert all(i < j for i, ups in enumerate(dual.up) for j in ups)
    return dual


def reduced_betti(poset: FinitePoset) -> tuple[int, ...]:
    """Reduced rational Betti numbers of the order complex of the poset.

    Entry m + 1 of the result is the Betti number in dimension m, starting
    with dimension -1, so an empty poset gives (1,) and a poset whose
    order complex is connected and acyclic gives a tuple of zeros.  The
    augmented chain complex is used throughout: the empty chain spans the
    (-1)-dimensional chain group.

    The chains are read on the dual poset (`_top_down`), whose order
    complex is the same.  Each boundary rank is the rank of the
    coboundary, from the smallest chain size up, with clearing in the
    cohomology direction (de Silva, Morozov and Vejdemo-Johansson,
    "Dualities in persistent (co)homology", 2011; Bauer, "Ripser", 2021):
    an s-chain that is the pivot column of a row from (s-1)-chains leaves
    out its own row.  That pivot row is a cocycle whose smallest column is
    the chain, so the chain's row lies in the span of the rows of later
    chains, and by descending induction in the span of the rows kept.
    The rows go from the last chain to the first, and one whose smallest
    column no earlier row holds is an apparent pivot (Bauer, ibid.),
    counted with no row built: such rows have distinct smallest columns,
    so they are in echelon form, and `sparse_rank` reduces the other rows
    against them as against its own pivots.
    """
    dual = _top_down(poset)
    coboundary = _Coboundary(dual)
    layers = chains_by_size(dual)
    sizes = [len(layer) for layer in layers]
    layers.pop()  # larger chains are read from the masks
    ranks = [0] * (len(sizes) + 1)
    cleared: set[tuple[int, ...]] = set()
    for s in range(1, len(sizes)):
        pivots = _Pivots(coboundary)
        rows = []
        for chain in reversed(layers[s - 1]):
            if chain not in cleared:
                col, sign = coboundary.leading(chain)
                if col is None or col in pivots:
                    rows.append(coboundary.row(chain))
                else:
                    pivots[col] = chain, sign
        layers[s - 1] = []  # only its size is read from here on
        sparse_rank(rows, pivots)
        ranks[s] = len(pivots)
        cleared = set(pivots)
    return tuple(size - ranks[s] - ranks[s + 1] for s, size in enumerate(sizes))


def reduced_euler_characteristic(poset: FinitePoset) -> int:
    """Alternating sum of reduced Betti numbers, computed from chain counts
    alone.  Equals the Mobius value of the poset with a bottom and top
    adjoined, by Philip Hall's theorem."""
    counts = count_chains_by_size(poset)
    return -sum((-1) ** s * c for s, c in enumerate(counts))


# ----- characters on homology -----


def lefschetz_number(poset: FinitePoset, image: Sequence[int]) -> int:
    """Alternating trace sum(m) (-1)^m tr(g | C_m) over the augmented chain
    complex of the order complex of the proper part of `poset`, for an
    order automorphism g given on ids: image[i] is the id of g applied to
    element i.  `poset` carries its bottom, which g fixes; a poset
    without a unique bottom raises ValueError.

    A chain fixed setwise by an order-preserving map is fixed pointwise,
    and then carries orientation sign +1, so each trace is just a count of
    chains of fixed elements: the result is the reduced Euler
    characteristic of the fixed proper part.  By Philip Hall's theorem
    that is -sum mu(bottom, x) over the fixed x, with mu taken in the
    fixed subposet, so the Mobius recursion runs over the down lists with
    every moved id held at 0.  By the Hopf trace formula the result
    equals the alternating sum of traces on homology; when homology is
    concentrated in one degree d, the character value there is (-1)^d
    times this number.
    """
    return -sum(poset._mobius_ids([g == i for i, g in enumerate(image)]))


def top_degree_character(n: int, poset: FinitePoset, image: Sequence[int]) -> int:
    """(-1)^n times the Lefschetz number: the character of the id permutation
    `image` on the proper part's homology when it is concentrated in degree n - 2."""
    return (-1) ** (n % 2) * lefschetz_number(poset, image)


def top_homology_character(n: int, perm: Permutation) -> int:
    """Character value of a permutation on the reduced homology of the
    proper part of the parking function poset, in its top degree n - 2.

    Computed by the Hopf trace formula on the ids of build_pp_poset(n),
    which permute as pp_action_ids says; no closed formula is consulted.
    """
    return top_degree_character(n, build_pp_poset(n), pp_action_ids(n, perm))


def signed_prime_character(n: int, k: int, perm: Permutation) -> int:
    """Closed form (-1)^(n - z) * (k*n - 1)^(z - 1) with z the number of
    cycles of the permutation.

    This is the sign character times the prime parking character, and it
    is the predicted character of the top reduced homology of the proper
    part of the k-divisible parking function poset (k = 1 gives the
    ordinary poset).
    """
    if perm.n != n:
        raise ValueError("permutation size does not match n")
    z = perm.num_cycles()
    return (-1) ** (n - z) * (k * n - 1) ** (z - 1)


# ----- Whitney modules -----


def interval_catalan_weight(partition: NoncrossingPartition) -> int:
    """Product of Catalan numbers C(|b| - 1) over the blocks b of the
    Kreweras complement.

    This is the number of maximal-dimension spheres in the open interval
    below the partition in the noncrossing partition lattice: the interval
    is a product of smaller noncrossing partition lattices, one factor per
    complement block, and each factor contributes a Catalan number."""
    weight = 1
    for block in kreweras(partition).blocks:
        weight *= catalan(len(block) - 1)
    return weight


def whitney_module_character(
    n: int, rank: int, perm: Permutation | None = None
) -> int:
    """Character (dimension when perm is None) of the rank-selected Whitney
    module of the parking function poset.

    The module at rank l has one summand per rank-l element, of dimension
    the interval Catalan weight of its partition; a permutation permutes
    the summands, so its trace only sees the elements it fixes, read on
    the ids of build_pp_poset(n) from pp_action_ids.  The alternating
    sum over ranks, times (-1)^(n - 1), recovers the character of the
    top reduced homology.
    """
    poset = build_pp_poset(n)
    image = range(len(poset)) if perm is None else pp_action_ids(n, perm)
    return sum(
        interval_catalan_weight(elem.partition)
        for i, elem in enumerate(poset.elements)
        if elem.rank == rank and image[i] == i
    )


def parking_betti(n: int) -> tuple[int, ...]:
    """Reduced Betti numbers of the proper part of the parking function
    poset, starting in dimension -1."""
    return reduced_betti(build_pp_poset(n).without_bottom())
