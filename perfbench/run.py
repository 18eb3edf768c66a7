"""parkposet benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload export --seed 1 --seconds 25 --trace 0

Workloads are export, analysis and elements (see BENCHMARK.json for why
each exists).  Load is closed-loop: one client, one process, one
thread, each op issued when the previous one has returned.

With --trace 0 the result carries the end-to-end metrics:

* wall_s: median time of one pass over the workload's ops.
* setup_s: median, over ten fresh interpreters (five before the passes,
  five after), of interpreter start plus `import parkposet.cli`, which
  every CLI call pays.
* peak_rss_mb: peak RSS of the child process that ran only the passes.
* query_us_p50 / query_us_p99: nearest-rank percentiles, over the
  workload's distinct ops, of each op's median latency across the passes.
  On elements an op is one element query and there are 3000 of them, 30
  beyond p99; on the other workloads an op is one CLI call or library
  call, there are too few for ten beyond p99, and p99 is the slowest op
  (the summary says how many lie beyond it).

Failures are the `failed` count of the result line; failed_frac (failed
over attempted) is printed in the summary above it.  With --trace 1 the
result carries the per-layer metrics of a traced run instead; see
layers.json for what each measures and which end-to-end metric it should
move on which workload.

The last line of stdout is the JSON result.  The exit status is nonzero,
with no result, when the checkout has no parkposet sources or the run
cannot finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 160


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(samples: int) -> list[float]:
    """Seconds for each of `samples` fresh interpreters to import
    parkposet.cli (from this checkout, or the probe fails)."""
    probe = (
        "import sys, parkposet.cli; "
        f"sys.exit(0 if parkposet.cli.__file__.startswith({str(SRC)!r}) else 3)"
    )
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - start)
    return times


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parkposet" / "__init__.py").is_file():
        print(f"error: no parkposet sources under {SRC}", file=sys.stderr)
        return 2

    if not args.trace:
        # One untimed start leaves compiled bytecode behind.  Half the
        # samples come before the passes and half after, because a shared
        # machine's speed drifts over tens of seconds.
        time_setup(1)
        setup_times = time_setup(SETUP_SAMPLES // 2)
    worker = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(worker, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup_times += time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    attempted = raw["attempted"]
    failed = len(raw["failures"])
    passes = len(raw["pass_times"])
    for failure in raw["failures"][:20]:
        print(f"FAILED {failure}")
    if raw.get("not_traced"):
        print(f"traced functions missing from parkposet: {raw['not_traced']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes, {attempted} ops attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.6g} ratio")
    if args.trace:
        layers = raw["layers"]
        units = {row["name"]: row["unit"] for row in tracing.load_layers()}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        p50, _ = percentile(raw["op_latencies"], 0.50)
        p99, beyond = percentile(raw["op_latencies"], 0.99)
        metrics = {
            "wall_s": {"value": statistics.median(raw["pass_times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "query_us_p50": {"value": p50 * 1e6, "unit": "us"},
            "query_us_p99": {"value": p99 * 1e6, "unit": "us"},
        }
        print(f"wall_s is the median of {passes} passes; query percentiles are over "
              f"{len(raw['op_latencies'])} ops, {beyond} beyond p99")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
