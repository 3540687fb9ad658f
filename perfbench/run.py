"""xyzbattery benchmark: three CLI workloads, end-to-end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload point-eval --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones. The lines before it
repeat every metric by name with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="task time to measure; whole cycles, at least 100 tasks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "xyzbattery" / "__init__.py").is_file():
        print(f"error: no xyzbattery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, set before numpy loads, so the benchmark's
    # threads are the sweep workers alone: at most nproc
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    if args.trace:
        result = harness.traced_run(args.workload, args.seed)
    else:
        result = harness.timed_run(ROOT, args.workload, args.seed, args.seconds)

    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"FAILED {problem}")
    print(f"ops_failed_ratio {ratio!r} ({result.failed} of {result.attempted})")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
