"""Benchmark child process: runs one workload's passes, prints one JSON line.

Started by run.py with the checkout's `src` first on the import path.
With --trace 0 it runs untraced passes for --seconds.  With --trace 1 it
runs untraced passes for half the time, then installs the tracing
wrappers and runs traced passes for the other half; the spans go to
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_checkout_package() -> None:
    sys.path.insert(0, str(SRC))
    import parkposet

    if Path(parkposet.__file__).resolve().parent != SRC / "parkposet":
        raise SystemExit(f"parkposet imported from {parkposet.__file__}, not {SRC}")


def _summary(runner) -> dict:
    return {
        "pass_times": runner.pass_times,
        # Each op's latency is its median over the passes.
        "op_latencies": [statistics.median(v) for v in runner.latencies.values()],
        "attempted": runner.attempted,
        "failures": runner.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout_package()
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed)
    if not args.trace:
        runner = workloads.Runner(workload)
        runner.run_for(args.seconds)
        out = _summary(runner)
    else:
        base = workloads.Runner(workload)
        base.run_for(args.seconds / 2)
        rec = tracing.Recorder()
        installation = tracing.install(rec)
        try:
            traced = workloads.Runner(workload, recorder=rec)
            traced.run_for(args.seconds / 2)
        finally:
            installation.uninstall()
        out = _summary(traced)
        out["attempted"] += base.attempted
        out["failures"] = base.failures + traced.failures
        metrics = tracing.layer_metrics(rec, len(traced.pass_times), traced.output_bytes)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.pass_times) / statistics.median(base.pass_times) - 1
        )
        out["layers"] = metrics
        out["not_traced"] = [".".join(key) for key in installation.missing]
        rec.dump(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
