#!/usr/bin/env python3
"""Print the headline tables: cardinalities, rank censuses, Mobius
values, Betti numbers, and homology character tables.

Everything is recomputed from scratch through the library; nothing is
hard coded, so the script doubles as a smoke test.
"""

import argparse

from parkposet import (
    FinitePoset,
    Permutation,
    build_pp_poset,
    chain_count,
    class_representatives,
    count_elements,
    parking_betti,
    signed_prime_character,
    top_homology_character,
    whitney_first_kind,
)


def cycle_label(perm: Permutation) -> str:
    return "+".join(str(p) for p in sorted(perm.cycle_type(), reverse=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=5, help="largest n (2..5)")
    args = parser.parse_args()
    nmax = max(2, min(args.nmax, 5))

    print("cardinalities |poset on [n]| = (n+1)^(n-1)")
    for n in range(2, nmax + 1):
        print(f"  n={n}: {count_elements(n)}")

    print("rank censuses and Mobius data")
    for n in range(2, nmax + 1):
        poset: FinitePoset = build_pp_poset(n)
        census = poset.whitney_second()
        closed = [chain_count(n, 1, l) for l in range(n)]
        whitney = poset.whitney_first()
        closed_w = [whitney_first_kind(n, l) for l in range(n)]
        print(f"  n={n}: ranks {census} (closed {closed})")
        print(f"        whitney first {whitney} (closed {closed_w})")
        print(f"        mobius-hat {poset.mobius_hat()}")

    print("reduced Betti numbers of the proper part (degrees -1, 0, ...)")
    for n in range(3, min(nmax, 5) + 1):
        print(f"  n={n}: {parking_betti(n)}")

    print("homology character tables (Lefschetz vs closed formula)")
    for n in range(3, min(nmax, 4) + 1):
        print(f"  n={n}:")
        for perm in class_representatives(n):
            value = top_homology_character(n, perm)
            closed = signed_prime_character(n, 1, perm)
            flag = "ok" if value == closed else "MISMATCH"
            print(f"    {cycle_label(perm):>10}: {value:>5} (closed {closed}) {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
