"""Noncrossing alternating forests and the cluster parking poset.

A noncrossing alternating forest on [n] is a set of edges {i, j}, written
with i < j, such that no two edges {i, j} and {k, l} satisfy
i < k <= j < l.  This single pairwise condition rules out both crossings
(i < k < j < l) and paths that bend the wrong way at a shared vertex
(k = j), which is the alternating requirement: every vertex is the smaller
endpoint of all its edges or the larger endpoint of all its edges.  The
faces form a simplicial complex Delta_n whose face numbers are the
unsigned Whitney numbers of the first kind of the noncrossing partition
lattice; the total face counts 1, 2, 6, 22, 90, 394, 1806, ... are the
little Schroeder numbers.  The facets are the noncrossing alternating
spanning trees, there are Catalan(n - 1) of them, and every facet contains
the long edge (1, n), so the complex is a cone over the subcomplex of
faces avoiding that edge, which is itself a homology sphere of dimension
n - 3.

Taking connected components sends a face to a noncrossing partition.  The
map reverses order (more edges means coarser components, and coarser is
smaller here), and its fibers have sizes given by products of Catalan
numbers over the blocks.  Pulling the parking function poset back along
the Kreweras complement of this map produces the cluster parking poset:
pairs (face, element) where the complement of the face's components is
the element's partition, ordered componentwise.  The symmetric group acts
on the element coordinate alone.  This poset is the face poset of a
simplicial complex, every principal order ideal is boolean, and its
proper part has the same homology and character as the proper part of
the parking function poset.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Iterable

from .nc import NoncrossingPartition, Permutation, kreweras
from .objects import ParkingElement
from .parking_order import (
    build_nc_poset,
    build_pp_poset,
    enumeration_ids,
    partition_ids,
    pp_leq,
)
from .poset import FinitePoset, element_ids

Edge = tuple[int, int]


def edges_compatible(e: Edge, f: Edge) -> bool:
    """Whether two edges (each written (smaller, larger)) may share a face."""
    for (i, j), (k, l) in ((e, f), (f, e)):
        if i < k <= j < l:
            return False
    return True


def _normalize(n: int, edges: Iterable[Iterable[int]]) -> frozenset[Edge]:
    out = set()
    for edge in edges:
        a, b = edge
        if a == b:
            raise ValueError(f"loop at vertex {a}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge {edge!r} leaves the vertex set [1, {n}]")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def _component_labels(n: int, edges: Iterable[Edge]) -> list[int]:
    """A component label for each vertex 1..n: each edge relabels the
    component of one endpoint with the label of the other."""
    label = list(range(n + 1))
    for a, b in edges:
        old, new = label[a], label[b]
        label = [new if x == old else x for x in label]
    return label[1:]


def is_forest_face(n: int, edges: Iterable[Iterable[int]]) -> bool:
    """Membership test for the noncrossing alternating forest complex.

    Vertices outside [1, n] and loops raise ValueError; otherwise the edge
    set is accepted iff it is pairwise compatible and acyclic.  The first
    forces the second: a shortest cycle of noncrossing chords is the convex
    polygon on its sorted vertices v1 < v2 < ... < vm, so it holds the pair
    (v1, v2), (v2, v3), which is not compatible.  `enumerate_forest_faces`
    tests compatibility alone, and this test is its second route.
    """
    face = _normalize(n, edges)
    pairwise = all(edges_compatible(e, f) for e, f in combinations(face, 2))
    # acyclic iff every edge joins two components, leaving n - |face|
    return pairwise and len(set(_component_labels(n, face))) == n - len(face)


def enumerate_forest_faces(n: int) -> list[frozenset[Edge]]:
    """All faces of the complex, the empty face included, by backtracking
    over compatible edges in lexicographic order (see `is_forest_face`)."""
    if n < 1:
        raise ValueError("n must be positive")
    all_edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    faces: list[frozenset[Edge]] = []

    def extend(face: list[Edge], candidates: list[Edge]) -> None:
        faces.append(frozenset(face))
        for idx, e in enumerate(candidates):
            face.append(e)
            extend(face, [f for f in candidates[idx + 1 :] if edges_compatible(e, f)])
            face.pop()

    extend([], all_edges)
    return faces


def face_counts_by_size(n: int) -> list[int]:
    """Number of faces with s edges for s = 0 .. n - 1; these match the
    unsigned Whitney numbers of the first kind of the noncrossing
    partition lattice on [n]."""
    counts = [0] * n
    for face in enumerate_forest_faces(n):
        counts[len(face)] += 1
    return counts


def forest_components(n: int, edges: Iterable[Iterable[int]]) -> NoncrossingPartition:
    """Partition of [n] into connected components of the forest.

    For a face of the complex the result is always noncrossing; the
    constructor validates this, so passing a crossing edge set raises.
    """
    blocks = defaultdict(list)
    for v, root in enumerate(_component_labels(n, _normalize(n, edges)), start=1):
        blocks[root].append(v)
    return NoncrossingPartition(n, blocks.values())


def spanning_facets(n: int) -> list[frozenset[Edge]]:
    """The maximal faces: noncrossing alternating spanning trees."""
    return [f for f in enumerate_forest_faces(n) if len(f) == n - 1]


def boundary_faces(n: int) -> list[frozenset[Edge]]:
    """Faces avoiding the cone apex (1, n); a homology (n-3)-sphere."""
    apex = (1, n)
    return [f for f in enumerate_forest_faces(n) if apex not in f]


def face_poset(faces: Iterable[frozenset[Edge]]) -> FinitePoset:
    """Inclusion order on the nonempty faces, each face g covering the
    faces g - {e}.  The faces must form a complex: ValueError on a face
    whose one-edge-smaller face is missing, and on a repeated face.

    The order complex of this poset is the barycentric subdivision of the
    simplicial complex, so the homology machinery applied to it computes
    the homology of the complex itself.
    """
    nonempty = sorted((f for f in faces if f), key=sorted)
    ids = element_ids(nonempty)

    def below(g: frozenset[Edge], e: Edge) -> int:
        if g - {e} not in ids:
            raise ValueError(f"not a complex: face {sorted(g)} lacks {sorted(g - {e})}")
        return ids[g - {e}]

    covers = ((below(g, e), j) for j, g in enumerate(nonempty) if len(g) > 1 for e in g)
    poset = FinitePoset(nonempty, covers)
    poset.index = ids
    return poset


# ----- cluster parking functions -----


def _cluster_ids(n: int) -> tuple[list[frozenset[Edge]], list[tuple[int, int]]]:
    """The faces of the complex, and the pairs of cluster_elements as
    (face index, build_pp_poset(n) id), matched on NC_n ids."""
    faces = enumerate_forest_faces(n)
    nc, pid = build_nc_poset(n), partition_ids(n)
    by_partition = defaultdict(list)
    for f, face in enumerate(faces):
        by_partition[nc.index[kreweras(forest_components(n, face))]].append(f)
    return faces, [(f, p) for p in enumeration_ids(n) for f in by_partition[pid[p]]]


def cluster_elements(n: int) -> list[tuple[frozenset[Edge], ParkingElement]]:
    """Pairs (face, element) whose coordinates match over the noncrossing
    partition lattice: the Kreweras complement of the face's components
    equals the element's partition."""
    faces, pairs = _cluster_ids(n)
    elements = build_pp_poset(n).elements
    return [(faces[f], elements[p]) for f, p in pairs]


def cluster_leq(
    a: tuple[frozenset[Edge], ParkingElement],
    b: tuple[frozenset[Edge], ParkingElement],
) -> bool:
    """Componentwise order: face containment and parking order."""
    return a[0] <= b[0] and pp_leq(a[1], b[1])


def build_cluster_poset(n: int) -> FinitePoset:
    """The cluster parking poset: face containment, with the empty face
    below every face, ANDed with the parking order, both pulled back
    from posets already built (face_poset and build_pp_poset).
    enumerate_forest_faces lists the faces as face_poset sorts them, the
    empty face first, so face f has face_poset id f - 1 and face_below
    holds its mask at f."""
    faces, pairs = _cluster_ids(n)
    pp = build_pp_poset(n)
    face_below = [0] + face_poset(faces).pull_back(
        (i, f - 1) for i, (f, _) in enumerate(pairs) if f
    )
    elem_below = pp.pull_back(enumerate(p for _, p in pairs))
    empty = sum(1 << i for i, (f, _) in enumerate(pairs) if not f)
    down = [(empty | face_below[f]) & elem_below[p] for f, p in pairs]
    return FinitePoset.from_down_masks(
        [(faces[f], pp.elements[p]) for f, p in pairs], down
    )


def cluster_action(
    perm: Permutation, pair: tuple[frozenset[Edge], ParkingElement]
) -> tuple[frozenset[Edge], ParkingElement]:
    """Symmetric group action: relabel the parking element, keep the face.

    The action moves an element's labels but never its partition, so the
    matching condition with the face is preserved.
    """
    return (pair[0], pair[1].act(perm))
