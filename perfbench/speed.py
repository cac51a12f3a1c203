"""Machine-speed probe for correcting wall times.

On a shared host the same Python and NumPy work can take 1.7 times as
long in one half minute as in the next, because of load from outside the
benchmark.  A fixed kernel shaped like the package's inner loops (a
Python loop of small gathers, multiplies and dot products) is timed next
to the operations.  scale() is (REFERENCE_S / its median time) ** EXPONENT,
and an operation's corrected time is its wall time times the scale of the
probes around it.  Corrected seconds read as seconds on this host at the
speed it had when REFERENCE_S was measured.

The kernel, being nothing but small NumPy calls, slows down more under
load than the package's mix of interpreter and vector work does.
EXPONENT = 0.8 is the value that gave the smallest run-to-run spread on
all three workloads in the tuning runs (seeds 1..10, 25 s each); with
1.0 the spreads were 0.095, 0.061 and 0.039 instead of 0.066, 0.034
and 0.030 for large-solve, small-solve and certify.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time over the tuning runs on the 2-core x86_64 host
# (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 1.0e-3
EXPONENT = 0.8
REPEATS = 3

_x = np.linspace(0.5, 1.5, 6)
_coeffs = np.linspace(-1.0, 1.0, 84)
_var = np.arange(1, 84) % 6
_parent = np.arange(83) // 3
_positions = np.arange(1, 84)


def kernel() -> float:
    total = 0.0
    for _ in range(200):
        values = np.ones(84)
        values[_positions] = _x[_var] * values[_parent]
        total += float(values @ _coeffs)
    return total


def scale() -> float:
    """(REFERENCE_S / median of REPEATS timed kernel runs) ** EXPONENT."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return (REFERENCE_S / statistics.median(times)) ** EXPONENT
