"""Benchmark command for mvinterp: one workload, one seed, one run.

    python3 perfbench/run.py --workload large-solve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy, and the command exits 2
without a result when there is none.  The last line of standard output
is the result, {"correct", "attempted", "failed", "metrics"}; the line
before it is the environment stamp.  With --trace 0 the metrics are the
end-to-end ones, measured with tracing off.  With --trace 1 untraced and
traced rounds alternate, the metrics are the per-layer ones from the
traced rounds, and trace.overhead_s is the traced minus the untraced
time of a round.  Each run writes a summary, and with --trace 1 its
spans, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvinterp"
WORKLOAD_NAMES = ("large-solve", "small-solve", "certify")
# single process, closed loop: BLAS stays on one of the two cores
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {PACKAGE}; run from a source checkout\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    start = perf_counter()
    import mvinterp
    import harness  # imports numpy, scipy and every mvinterp module the workloads use

    import_s = perf_counter() - start
    if Path(mvinterp.__file__).resolve().parent != PACKAGE:
        sys.stderr.write(f"mvinterp imported from {mvinterp.__file__}, not {PACKAGE}\n")
        return 2
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
