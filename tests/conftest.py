"""Shared test helpers: independent brute-force oracles and hypothesis setup."""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest
from hypothesis import settings

from mvinterp.monomials import build_order
from mvinterp.polynomial import linear_terms
from mvinterp.univariate import solve_on_line

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

# the (m, n) shapes of the benchmark's small-solve workload
SMALL_SOLVE_SHAPES = [(1, 6), (5, 1), (3, 0), (2, 3), (3, 3), (2, 6), (4, 3), (3, 4), (5, 2), (2, 8), (4, 4), (6, 3)]


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines past the default output capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CONCLUSIONS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def brute_force_indices(m: int, n: int) -> list:
    """All exponent tuples of degree <= n, ordered independently of the package.

    Grouped by total degree; within a degree k, every multiset of k
    variables as an exponent tuple, sorted descending lexicographically
    (larger first exponent earlier).  This re-derives the canonical order
    from its written definition, not from the implementation.
    """
    out = []
    for k in range(n + 1):
        block = []
        for factors in itertools.combinations_with_replacement(range(m), k):
            idx = [0] * m
            for a in factors:
                idx[a] += 1
            block.append(tuple(idx))
        block.sort(reverse=True)
        out.extend(block)
    return out


def brute_force_eval(coeffs, indices, x) -> float:
    """Direct monomial-by-monomial evaluation, no shared code with the package."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for c, idx in zip(coeffs, indices):
        term = c
        for xv, e in zip(x, idx):
            term *= xv**e
        total += term
    return total


def lift_row(row) -> tuple:
    """A dense linear row [c0, normal] in the form mul_linear reads."""
    return float(row[0]), linear_terms(row[1:])


def solve_on_dense_line(t, values, t0, direction):
    """solve_on_line with its direction an m-vector, lifted through the lift
    table of the line's own degree."""
    direction = np.asarray(direction, dtype=float)
    return solve_on_line(t, values, t0, linear_terms(direction), build_order(direction.size, len(t) - 1).lifts())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def tree_splits(tree) -> list:
    """(key, axis, lo, mid, hi) of every split of a DecompTree, in preorder,
    read off its table; axis is the 0-based frame row of the split's normal."""
    return [
        (key, tree.sigma[v][0] - 1, tree.lo[v], mid, tree.hi[v])
        for v, key, mid in zip(tree.split, tree.key, tree.mid)
    ]
