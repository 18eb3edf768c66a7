"""k-divisible noncrossing partitions and parking chains.

Two equivalent pictures of k-divisibility coexist.  The chain picture
takes weak k-element chains as elements: for noncrossing partitions these
form a poset ordered by reverse containment of relative Kreweras
complements, and Fuss-Catalan many elements exist; for parking functions
a chain is compared through its noncrossing chain together with its last
element, and there are (kn + 1)^(n - 1) chains.  The subposet picture
keeps ordinary (2-)partitions of [kn] and restricts to those all of whose
blocks have size divisible by k.  For noncrossing partitions the two
pictures give isomorphic posets.  For parking functions they do not: the
subposet carries an action of the larger symmetric group, and the two
permutation characters match only after the substitution that sends each
homogeneous symmetric function h_i to h_{ki}, which concretely means the
multiset of block size types of chain tops, scaled by k, equals the
multiset of block size types in the subposet.

A chain is prime when its first (coarsest) element is prime.  Primality
survives coarsening, so this is the same as some element of the chain
being prime, and it is the convention forced by the counting: there are
(kn - 1)^(n - 1) prime chains, matching the prime parking character.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from .nc import (
    NoncrossingPartition,
    Permutation,
    enumerate_noncrossing,
    nc_leq,
    relative_kreweras,
)
from .objects import ParkingElement, enumerate_elements
from .parking_order import build_nc_poset, build_pp_poset, pp_action_ids, pp_leq
from .poset import FinitePoset


def weak_chains(
    elements: Sequence[Hashable],
    leq: Callable[[Hashable, Hashable], bool],
    k: int,
) -> list[tuple[Hashable, ...]]:
    """All weak k-element chains x_1 <= ... <= x_k of a finite order."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    chains: list[tuple[Hashable, ...]] = [()]
    for _ in range(k):
        chains = [
            chain + (x,)
            for chain in chains
            for x in elements
            if not chain or leq(chain[-1], x)
        ]
    return chains


def relative_complement_chain(
    n: int, nc_chain: Sequence[NoncrossingPartition]
) -> tuple[NoncrossingPartition, ...]:
    """Consecutive relative Kreweras complements of a weak chain, starting
    from the one-block partition.  The original chain can be recovered
    from this vector, which is why comparing the vectors gives a partial
    order on chains."""
    previous = NoncrossingPartition(n, [range(1, n + 1)])
    out = []
    for part in nc_chain:
        out.append(relative_kreweras(previous, part))
        previous = part
    return tuple(out)


def _weak_chain_ids(poset: FinitePoset, listing: Iterable, k: int) -> list[tuple]:
    """Weak k-chains of poset as id tuples, listed as weak_chains lists
    them over the elements of listing, extended along down lists."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    order = [poset.index[x] for x in listing]
    above: list[list[int]] = [[] for _ in order]  # ids at or above, in order
    below = poset.down_lists()
    for j in order:
        for i in below[j]:
            above[i].append(j)
    chains = [(i,) for i in order]
    for _ in range(k - 1):
        chains = [chain + (j,) for chain in chains for j in above[chain[-1]]]
    return chains


def _to_elements(poset: FinitePoset, chains: list) -> list[tuple[Hashable, ...]]:
    """Each id chain replaced by its element chain in place, so that no
    second list of chains is alive beside the first."""
    for t, chain in enumerate(chains):
        chains[t] = tuple(map(poset.elements.__getitem__, chain))
    return chains


def nck_elements(n: int, k: int) -> list[tuple[NoncrossingPartition, ...]]:
    """Weak k-chains of noncrossing partitions; Fuss-Catalan many."""
    nc = build_nc_poset(n)
    return _to_elements(nc, _weak_chain_ids(nc, enumerate_noncrossing(n), k))


def nck_leq(
    a: Sequence[NoncrossingPartition], b: Sequence[NoncrossingPartition]
) -> bool:
    """Order on k-divisible noncrossing partitions: the relative complement
    vector of the smaller chain dominates that of the larger one."""
    n = a[0].n
    nu_a = relative_complement_chain(n, a)
    nu_b = relative_complement_chain(n, b)
    return all(nc_leq(nb, na) for na, nb in zip(nu_a, nu_b))


def build_nck_poset(n: int, k: int) -> FinitePoset:
    """Poset of k-divisible noncrossing partitions in the chain picture:
    the NC_n up masks pulled back along each relative complement
    coordinate, ANDed, since the chain order reverses containment."""
    nc = build_nc_poset(n)
    chains = _weak_chain_ids(nc, enumerate_noncrossing(n), k)
    bottom = nc.index[NoncrossingPartition.bottom(n)]
    # One relative complement per distinct (previous, part) pair of ids.
    complement: dict[tuple[int, int], int] = {}
    nu = []
    for chain in chains:
        vector, previous = [], bottom
        for part in chain:
            if (previous, part) not in complement:
                complement[previous, part] = nc.index[
                    relative_kreweras(nc.elements[previous], nc.elements[part])
                ]
            vector.append(complement[previous, part])
            previous = part
        nu.append(vector)
    down = [-1] * len(chains)
    for t in range(k):
        above = nc.pull_back(((i, vector[t]) for i, vector in enumerate(nu)), dual=True)
        down = [d & above[vector[t]] for d, vector in zip(down, nu)]
    return FinitePoset.from_down_masks(_to_elements(nc, chains), down)


def ppk_elements(n: int, k: int) -> list[tuple[ParkingElement, ...]]:
    """Weak k-chains of the parking function poset; (kn+1)^(n-1) many,
    listed as weak_chains lists them over enumerate_elements."""
    pp = build_pp_poset(n)
    return _to_elements(pp, _weak_chain_ids(pp, enumerate_elements(n), k))


def ppk_leq(
    a: Sequence[ParkingElement], b: Sequence[ParkingElement]
) -> bool:
    """Order on k-divisible noncrossing 2-partitions: the underlying
    noncrossing chains compare in the chain order and the last elements
    compare in the parking order."""
    if not pp_leq(a[-1], b[-1]):
        return False
    return nck_leq([x.partition for x in a], [x.partition for x in b])


def build_ppk_poset(n: int, k: int) -> FinitePoset:
    """Poset of k-divisible noncrossing 2-partitions in the chain picture:
    the build_pp_poset order pulled back along last elements, ANDed with
    the build_nck_poset order pulled back along underlying noncrossing
    chains."""
    chains = ppk_elements(n, k)
    pp, nck = build_pp_poset(n), build_nck_poset(n, k)
    tops = [pp.index[c[-1]] for c in chains]
    ncs = [nck.index[tuple(x.partition for x in c)] for c in chains]
    tops_below = pp.pull_back(enumerate(tops))
    ncs_below = nck.pull_back(enumerate(ncs))
    return FinitePoset.from_down_masks(
        chains, [tops_below[t] & ncs_below[c] for t, c in zip(tops, ncs)]
    )


def ppk_action(
    perm: Permutation, chain: Sequence[ParkingElement]
) -> tuple[ParkingElement, ...]:
    """Diagonal symmetric group action on a parking chain.

    Acting termwise preserves comparability and the underlying chain of
    noncrossing partitions, hence also the chain order.
    """
    return tuple(x.act(perm) for x in chain)


def ppk_action_ids(poset: FinitePoset, perm: Permutation) -> list[int]:
    """ppk_action on the ids of a poset of parking chains on [perm.n],
    such as build_ppk_poset(perm.n, k): entry i is the id of perm applied
    to chain i.

    The chain's terms move by pp_action_ids and the moved chain is found
    through poset.index; no element is built.
    """
    pp = build_pp_poset(perm.n)
    moved = [pp.elements[i] for i in pp_action_ids(perm.n, perm)]
    return [
        poset.index[tuple(moved[pp.index[x]] for x in chain)]
        for chain in poset.elements
    ]


def is_prime_chain(chain: Sequence[ParkingElement]) -> bool:
    """Prime chains have a prime first element; see the module docstring."""
    return chain[0].is_prime()


# ----- the subposet picture -----


def divisible_nc_elements(n: int, k: int) -> list[NoncrossingPartition]:
    """Noncrossing partitions of [kn] all of whose blocks have size
    divisible by k."""
    return [
        p
        for p in enumerate_noncrossing(k * n)
        if all(len(b) % k == 0 for b in p.blocks)
    ]


def build_divisible_nc_poset(n: int, k: int) -> FinitePoset:
    """Subposet of the noncrossing partition lattice of [kn] on the
    k-divisible elements; isomorphic to the chain picture."""
    elements = divisible_nc_elements(n, k)
    return FinitePoset.from_leq(elements, lambda i, j: nc_leq(elements[i], elements[j]))


def divisible_parking_elements(n: int, k: int) -> list[ParkingElement]:
    """Parking elements on [kn] whose partition has k-divisible blocks."""
    return [
        e
        for e in enumerate_elements(k * n)
        if all(len(b) % k == 0 for b in e.partition.blocks)
    ]


def build_divisible_parking_poset(n: int, k: int) -> FinitePoset:
    """Subposet of the parking poset of [kn] on k-divisible elements.

    Unlike the noncrossing case this is not isomorphic to the chain
    picture; the two are related through their permutation characters
    (see the module docstring).
    """
    elements = divisible_parking_elements(n, k)
    return FinitePoset.from_leq(elements, lambda i, j: pp_leq(elements[i], elements[j]))
