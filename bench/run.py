"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Lines above it, each starting with '#', give the
provenance, every failure and every metric with its unit.  --out FILE also
appends a record of the run to FILE (JSONL) for bench/compare.py.

BLAS and OpenMP are pinned to one thread before numpy is imported.  Exit
code 2, with no result line, means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append a JSONL record of the run here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if "numpy" in sys.modules:
        print("bench: numpy was imported before BLAS threads were pinned", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    import harness  # imports numpy, so only after pinning

    try:
        harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except harness.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
