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

from functools import cache
from typing import Callable, Hashable, Iterable, Sequence

from .nc import (
    NoncrossingPartition,
    Permutation,
    enumerate_noncrossing,
    nc_leq,
    relative_kreweras,
)
from .objects import ParkingElement, enumerate_elements
from .parking_order import (
    build_nc_poset,
    build_pp_poset,
    enumeration_ids,
    partition_ids,
    pp_action_ids,
    pp_leq,
)
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


def _weak_chain_ids(poset: FinitePoset, order: Sequence[int], k: int) -> tuple:
    """Weak k-chains of poset as id tuples, listed as weak_chains lists
    them over the elements with the ids of order, in that order: a
    depth-first walk over the ids at or above each term, which builds
    each chain once from its path."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    above: list[list[int]] = [[] for _ in order]  # ids at or above, in order
    below = poset.down_lists()
    for j in order:
        for i in below[j]:
            above[i].append(j)
    chains, chain, stack = [], [], [iter(order)]
    while stack:
        for j in stack[-1]:
            if len(stack) == k:
                chains.append((*chain, j))
            else:
                chain.append(j)
                stack.append(iter(above[j]))
                break
        else:  # the ids above the last term ran out (none at the root)
            stack.pop()
            del chain[-1:]
    return tuple(chains)


@cache
def _nc_chain_ids(n: int, k: int) -> tuple:
    """Weak k-chains of build_nc_poset(n) ids, over enumerate_noncrossing."""
    nc = build_nc_poset(n)
    return _weak_chain_ids(nc, [nc.index[p] for p in enumerate_noncrossing(n)], k)


@cache
def _parking_chain_ids(n: int, k: int) -> tuple:
    """Weak k-chains of build_pp_poset(n) ids, in enumerate_elements order."""
    return _weak_chain_ids(build_pp_poset(n), enumeration_ids(n), k)


def _to_elements(poset: FinitePoset, chains: Iterable) -> list[tuple[Hashable, ...]]:
    return [tuple(map(poset.elements.__getitem__, chain)) for chain in chains]


def nck_elements(n: int, k: int) -> list[tuple[NoncrossingPartition, ...]]:
    """Weak k-chains of noncrossing partitions; Fuss-Catalan many."""
    return _to_elements(build_nc_poset(n), _nc_chain_ids(n, k))


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
    chains = _nc_chain_ids(n, k)
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
    return _to_elements(build_pp_poset(n), _parking_chain_ids(n, k))


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
    the build_pp_poset order pulled back along last ids, ANDed with the
    build_nck_poset order pulled back along the chains of partition ids."""
    pp, nck = build_pp_poset(n), build_nck_poset(n, k)
    chains = _parking_chain_ids(n, k)
    pid = partition_ids(n)
    nck_id = {c: i for i, c in enumerate(_nc_chain_ids(n, k))}
    tops = [c[-1] for c in chains]
    ncs = [nck_id[tuple(map(pid.__getitem__, c))] for c in chains]
    tops_below = pp.pull_back(enumerate(tops))
    ncs_below = nck.pull_back(enumerate(ncs))
    down = [tops_below[t] & ncs_below[c] for t, c in zip(tops, ncs)]
    del nck, tops_below, ncs_below  # free the pulled-back masks before the covers
    return FinitePoset.from_down_masks(_to_elements(pp, chains), down)


def ppk_action(
    perm: Permutation, chain: Sequence[ParkingElement]
) -> tuple[ParkingElement, ...]:
    """Diagonal symmetric group action on a parking chain.

    Acting termwise preserves comparability and the underlying chain of
    noncrossing partitions, hence also the chain order.
    """
    return tuple(x.act(perm) for x in chain)


def ppk_action_ids(n: int, k: int, perm: Permutation) -> list[int]:
    """The permutation of the build_ppk_poset(n, k) ids induced by
    ppk_action: each id chain moves termwise by pp_action_ids and is
    looked up by ids, so no element is built or hashed."""
    move = pp_action_ids(n, perm)
    chains = _parking_chain_ids(n, k)
    ids = {chain: i for i, chain in enumerate(chains)}
    return [ids[tuple(map(move.__getitem__, chain))] for chain in chains]


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
