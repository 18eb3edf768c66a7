"""Exact order-complex homology for finite posets.

The order complex of a finite poset is the simplicial complex whose faces
are the strict chains.  They are listed and counted on ids, one size at a
time: a chain grows by an id strictly above its top, read from the up
masks.  This module computes the reduced rational Betti numbers with
exact arithmetic: each boundary rank is the rank of the coboundary, its
transpose, from fraction-free sparse elimination over Python integers,
taken from the smallest chain size up with clearing between degrees.
Fraction-free elimination is exact because each step replaces a row by
an integer combination a*row - b*pivot with a nonzero, which keeps the
row space over Q.  Clearing is exact because each row it leaves out
lies in the span of the rows that stay, so no rank changes.
Working upward, the rows of a coboundary that reduce to zero number
exactly the Betti number of its smaller chains, so for a homology
concentrated in the top degree every row of the largest matrix, the top
coboundary, is a pivot.

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
from typing import Iterable, Sequence

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


def _coboundary_rows(
    small: list[tuple[int, ...]],
    big: list[tuple[int, ...]],
    cleared: set[int],
) -> list[dict[int, int]]:
    """Rows of the coboundary map from chains of size s - 1 to chains of
    size s, the transpose of the boundary: one row per smaller chain whose
    index is not in `cleared`, from the last chain of `small` to the
    first, holding {index of a larger chain containing it: sign}.  The
    sign is that of the smaller chain in the boundary of the larger,
    (-1)^i when the larger chain's element i is the one left out.

    The order makes most rows pivot at once when the ids are a linear
    extension.  A chain whose first element lies above some element has
    as its smallest column the chain with the smallest such element put
    in front, and every other face of that column sorts before the
    chain, so no earlier row holds the column.  Only chains that start
    at a minimal element are reduced.  `build_pp_poset`, `build_nc_poset`
    and `permutahedron_face_poset` number every cover upward in id, so
    their ids are a linear extension; `build_ppk_poset`, `build_nck_poset`
    and `build_cluster_poset` number every cover downward.  The ranks are
    exact on any ids; only the number of reductions depends on them."""
    position = {ch: i for i, ch in enumerate(small)}
    rows: list[dict[int, int] | None] = [
        None if i in cleared else {} for i in range(len(small))
    ]
    for index, ch in enumerate(big):
        for i in range(len(ch)):
            row = rows[position[ch[:i] + ch[i + 1 :]]]
            if row is not None:
                row[index] = 1 if i % 2 == 0 else -1
    return [row for row in reversed(rows) if row is not None]


def reduced_betti(poset: FinitePoset) -> tuple[int, ...]:
    """Reduced rational Betti numbers of the order complex of the poset.

    Entry m + 1 of the result is the Betti number in dimension m, starting
    with dimension -1, so an empty poset gives (1,) and a poset whose
    order complex is connected and acyclic gives a tuple of zeros.  The
    augmented chain complex is used throughout: the empty chain spans the
    (-1)-dimensional chain group.

    Each boundary rank is computed as the rank of its transpose, the
    coboundary, from the smallest chain size up, with clearing in the
    cohomology direction (de Silva, Morozov and Vejdemo-Johansson,
    "Dualities in persistent (co)homology", 2011; Bauer, "Ripser", 2021):
    an s-chain that is the pivot column of a row of the coboundary from
    (s-1)-chains is left out of the rows of the coboundary from s-chains.
    That pivot row is a cocycle r = delta(c) whose smallest column is the
    chain, and delta(r) = 0, so the chain's own coboundary row lies in
    the span of the rows of later chains.  By descending induction every
    row left out lies in the span of the rows kept, so no rank changes.
    The coboundary from (s-1)-chains keeps as many rows as the boundary
    of (s-1)-chains has nullity, so exactly Betti-many of its rows reduce
    to zero: when the homology is concentrated in the top degree, every
    row of the top coboundary, the largest matrix, is a pivot.
    """
    layers = chains_by_size(poset)
    ranks = [0] * (len(layers) + 1)
    cleared: set[int] = set()
    for s in range(1, len(layers)):
        pivots: dict[int, dict[int, int]] = {}
        # Only the pivot columns outlive the call; no rows of this degree
        # are held while the next, larger one is built.
        ranks[s] = sparse_rank(
            _coboundary_rows(layers[s - 1], layers[s], cleared), pivots
        )
        cleared = set(pivots)
    betti = []
    for s, layer in enumerate(layers):
        betti.append(len(layer) - ranks[s] - ranks[s + 1])
    return tuple(betti)


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
