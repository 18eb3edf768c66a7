"""Validation pins: each malformed input to a constructor raises ValueError.

The constructors of partitions, permutations and parking elements check
their input in linear passes; this table fixes what those passes must
reject, one row per way an input can go wrong.
"""

import pytest

from parkposet.nc import NoncrossingPartition, Permutation, SetPartition
from parkposet.objects import ParkingElement


def triple(blocks, labels):
    n = sum(len(b) for b in blocks)
    return ParkingElement.from_triple(NoncrossingPartition(n, blocks), labels)


PINS = {
    # set partitions
    "overlapping blocks": lambda: SetPartition(3, [[1, 2], [2, 3]]),
    "repeated element in a block": lambda: SetPartition(3, [[1, 1, 2], [3]]),
    "missing element": lambda: SetPartition(3, [[1, 2]]),
    "element above n": lambda: SetPartition(3, [[1, 2], [3, 4]]),
    "element zero": lambda: SetPartition(3, [[0, 1], [2, 3]]),
    "negative element": lambda: SetPartition(3, [[-1, 1], [2, 3]]),
    "empty block last": lambda: SetPartition(3, [[1, 2, 3], []]),
    "empty block first": lambda: SetPartition(3, [[], [1, 2, 3]]),
    "n too large": lambda: SetPartition(4, [[1, 2, 3]]),
    "n too small": lambda: SetPartition(2, [[1, 2, 3]]),
    "noncrossing with overlap": lambda: NoncrossingPartition(3, [[1, 2], [2, 3]]),
    "noncrossing with empty block": lambda: NoncrossingPartition(2, [[1, 2], []]),
    # crossing
    "crossing pair": lambda: NoncrossingPartition(4, [[1, 3], [2, 4]]),
    "crossing unsorted input": lambda: NoncrossingPartition(4, [[4, 2], [3, 1]]),
    "crossing around a nested block": lambda: NoncrossingPartition(
        6, [[1, 4], [2, 6], [3], [5]]
    ),
    "crossing far inside": lambda: NoncrossingPartition(7, [[1, 7], [2, 4], [3, 5], [6]]),
    # permutations
    "repeated image": lambda: Permutation([1, 1, 3]),
    "image zero": lambda: Permutation([0, 1, 2]),
    "image above n": lambda: Permutation([1, 2, 4]),
    "shifted word": lambda: Permutation([2, 3]),
    # pairs
    "sigma decreasing on a block": lambda: ParkingElement(
        NoncrossingPartition(2, [[1, 2]]), Permutation([2, 1])
    ),
    "sigma decreasing late in a block": lambda: ParkingElement(
        NoncrossingPartition(4, [[1, 2, 4], [3]]), Permutation([1, 4, 2, 3])
    ),
    "sizes differ": lambda: ParkingElement(
        NoncrossingPartition(2, [[1, 2]]), Permutation([1, 2, 3])
    ),
    # triples
    "label set too small": lambda: triple([[1, 2], [3]], [[1], [2, 3]]),
    "too few label sets": lambda: triple([[1, 2], [3]], [[1, 2, 3]]),
    "too many label sets": lambda: triple([[1, 2], [3]], [[1, 2], [3], []]),
    "labels overlap": lambda: triple([[1, 2], [3]], [[1, 2], [2]]),
    "label above n": lambda: triple([[1, 2], [3]], [[1, 4], [2]]),
    "label far above n": lambda: triple([[1, 2], [3]], [[1, 2], [9]]),
    "label zero": lambda: triple([[1, 2], [3]], [[0, 1], [2]]),
    "negative label": lambda: triple([[1, 2], [3]], [[-1, 1], [2]]),
    # words
    "word not parking": lambda: ParkingElement.from_word([2, 2]),
    "word letter too large": lambda: ParkingElement.from_word([1, 4, 3]),
    "word letter zero": lambda: ParkingElement.from_word([0, 1]),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_malformed_input_raises_value_error(name):
    with pytest.raises(ValueError):
        PINS[name]()


@pytest.mark.parametrize(
    "n,blocks,canonical",
    [
        (3, [[2, 1], [3]], ((1, 2), (3,))),
        (3, [(3,), (2, 1)], ((1, 2), (3,))),
        (3, [range(1, 4)], ((1, 2, 3),)),
        (5, (b for b in [[5], [4, 2], [3], [1]]), ((1,), (2, 4), (3,), (5,))),
        (0, [], ()),
    ],
)
def test_well_formed_input_in_any_order_is_canonicalised(n, blocks, canonical):
    p = NoncrossingPartition(n, blocks)
    assert p.blocks == canonical
    assert all(x in p.block_of(x) for x in range(1, n + 1))
