#!/usr/bin/env python3
"""Export the small posets as DOT and JSON files for inspection.

Writes the parking poset, the noncrossing lattice, the cluster poset,
and the k-divisible chain poset for the requested sizes into the output
directory, using the CLI so the artifacts match its formats exactly.
With --long every CLI call gets --long, which n = 5 needs for the
cluster and k-divisible posets.  On the first call the CLI refuses, the
script prints that call and exits with its status.
"""

import argparse
from pathlib import Path

from parkposet.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="ground set size")
    parser.add_argument("--k", type=int, default=2, help="chain parameter")
    parser.add_argument(
        "--outdir", default="exports", help="directory for the artifacts"
    )
    parser.add_argument(
        "--long", action="store_true", help="pass --long to every CLI call"
    )
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n, k = str(args.n), str(args.k)

    jobs = [
        (f"parking_{args.n}.json", ["poset", "--n", n]),
        (f"parking_{args.n}.dot", ["poset", "--n", n, "--format", "dot"]),
        (f"nc_{args.n}.dot", ["poset", "--n", n, "--which", "nc", "--format", "dot"]),
        (f"cluster_{args.n}.json", ["cluster", "--n", n]),
        (f"kdivisible_{args.n}_{args.k}.json", ["kdivisible", "--n", n, "--k", k]),
    ]
    long = ["--long"] if args.long else []
    for name, argv in jobs:
        argv = argv + long
        target = outdir / name
        code = cli(argv + ["--output", str(target)])
        if code != 0:
            print(f"failed ({code}): {' '.join(argv)}")
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
