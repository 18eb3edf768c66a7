#!/usr/bin/env python3
"""Check the shelling of the parking poset on [N] exhaustively, with its
fork lemma, and time both.

Prints one JSON line of counts to stdout: the maximal chains and
homology facets of `verify_shelling`, the branch counts of
`verify_fork_lemma`, and the violations of each.  The seconds of each
check and the peak RSS of the process go to stderr.  Exits 1 on a
violation or when the facets are not (N-1)^(N-1), and 2 on an N outside
2..MAX_POSET_N.

    PYTHONPATH=src python scripts/verify_shelling.py --n 6
"""

import argparse
import json
import resource
import sys
import time

from parkposet import prime_parking_count
from parkposet.parking_order import MAX_POSET_N
from parkposet.shelling import verify_fork_lemma, verify_shelling


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True, help=f"2..{MAX_POSET_N}")
    args = parser.parse_args(argv)
    n = args.n
    if not 2 <= n <= MAX_POSET_N:
        parser.error(f"--n must lie in 2..{MAX_POSET_N}")
    start = time.perf_counter()
    shelling = verify_shelling(n)
    middle = time.perf_counter()
    fork = verify_fork_lemma(n)
    end = time.perf_counter()
    counts = {
        "n": n,
        "chains": shelling.num_chains,
        "facets": shelling.facets,
        "shelling_violations": len(shelling.violations),
        "fork_checked": fork.checked,
        "fork_replaced_middle": fork.replaced_middle,
        "fork_raised_top": fork.raised_top,
        "fork_violations": len(fork.violations),
    }
    print(json.dumps(counts))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"verify_shelling {middle - start:.2f} s, verify_fork_lemma "
        f"{end - middle:.2f} s, peak RSS {peak:.1f} MB",
        file=sys.stderr,
    )
    ok = shelling.ok and fork.ok and shelling.facets == prime_parking_count(n)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
