"""Benchmark of crbeam.pipeline.solve_scenario on named workloads.

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` measures the end-to-end metrics with tracing off, `--trace 1`
the per-layer metrics from spans around each layer's calls.  Every solve is
checked outside the timed window.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or all for every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-check: one small instance per workload, both trace modes")
    parser.add_argument("--out", help="write metrics, solves and spans as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "crbeam" / "__init__.py").is_file():
        print(f"perfbench: no crbeam package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args, ROOT, SRC, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
