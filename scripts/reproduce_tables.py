#!/usr/bin/env python3
"""Print the headline tables: cardinalities, rank censuses, Mobius
values, Betti numbers, and homology character tables.

Everything is recomputed from scratch through the library and compared
with its closed form; nothing is hard coded, so the script doubles as a
smoke test.  The first mismatch is printed to stderr and the script
exits 1; an --nmax outside 2..5 exits 2.
"""

import argparse
import sys

from parkposet import (
    FinitePoset,
    Permutation,
    build_pp_poset,
    chain_count,
    class_representatives,
    count_elements,
    parking_betti,
    prime_parking_count,
    signed_prime_character,
    top_homology_character,
    whitney_first_kind,
)


class Mismatch(Exception):
    """A computed table that differs from its closed form."""


def expect(what: str, value: object, closed: object) -> None:
    if value != closed:
        raise Mismatch(f"{what}: computed {value}, closed form {closed}")


def cycle_label(perm: Permutation) -> str:
    return "+".join(str(p) for p in sorted(perm.cycle_type(), reverse=True))


def print_tables(nmax: int) -> None:
    print("cardinalities |poset on [n]| = (n+1)^(n-1)")
    for n in range(2, nmax + 1):
        print(f"  n={n}: {count_elements(n)}")

    print("rank censuses and Mobius data")
    for n in range(2, nmax + 1):
        poset: FinitePoset = build_pp_poset(n)
        census = poset.whitney_second()
        closed = [chain_count(n, 1, l) for l in range(n)]
        expect(f"n={n} rank census", census, closed)
        whitney = poset.whitney_first()
        closed_w = [whitney_first_kind(n, l) for l in range(n)]
        expect(f"n={n} Whitney numbers of the first kind", whitney, closed_w)
        mobius = poset.mobius_hat()
        expect(f"n={n} mobius-hat", mobius, (-1) ** n * prime_parking_count(n))
        print(f"  n={n}: ranks {census} (closed {closed})")
        print(f"        whitney first {whitney} (closed {closed_w})")
        print(f"        mobius-hat {mobius}")

    print("reduced Betti numbers of the proper part (degrees -1, 0, ...)")
    for n in range(2, nmax + 1):
        betti = parking_betti(n)
        closed_b = (0,) * (n - 1) + (prime_parking_count(n),)
        expect(f"n={n} Betti numbers", betti, closed_b)
        print(f"  n={n}: {betti}")

    print("homology character tables (Lefschetz vs closed formula)")
    for n in range(2, nmax + 1):
        print(f"  n={n}:")
        for perm in class_representatives(n):
            value = top_homology_character(n, perm)
            closed = signed_prime_character(n, 1, perm)
            expect(f"n={n} character at {cycle_label(perm)}", value, closed)
            print(f"    {cycle_label(perm):>10}: {value:>5} (closed {closed}) ok")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=5, help="largest n (2..5)")
    args = parser.parse_args(argv)
    if not 2 <= args.nmax <= 5:
        parser.error("--nmax must lie in 2..5")
    try:
        print_tables(args.nmax)
    except Mismatch as exc:
        print(f"MISMATCH {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
