"""sparselm benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in its own process; BLAS
threads are pinned here, before numpy is imported. With --trace 0 the
result line holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced replay. The last line of standard output is the result;
the exit code is 0 only when every output check passed.
"""

import argparse
import os
import sys
import time

# BLAS threads per workload, capped at the cores this process may use
WORKLOAD_THREADS = {"pretrain-small": 1, "pretrain-wide": 2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = min(WORKLOAD_THREADS[args.workload], nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparselm", "__init__.py")):
        print(f"perfbench: no sparselm sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, here]

    started = time.perf_counter()
    import bench  # numpy, scipy and every sparselm module load here
    import_s = time.perf_counter() - started
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), threads,
                     nproc, import_s, root)


if __name__ == "__main__":
    sys.exit(main())
