"""The storage claim in bytes: a solve's traced peak is a small multiple of
m N reals.

A repeat solve holds only what the walk needs beyond the kept plan: the
accumulator, the row kernel's monomial buffer with one top-block
temporary, and a lift's input and output, about 3 N reals.  A first solve
at N = 10626, whose plan is too large to keep, builds its nodes, plan and
monomial tables within a few node tables (m N reals); the monomial order
with all its lifts holds a fraction of one.  A node file's
round trip holds its text about once more: reading it, the points and
labels beside the text; formatting it, the text's blocks and their join;
writing it, one block.  Peaks come from tracemalloc, so they count only
what Python and NumPy allocate; no wall-clock time is asserted.
"""

import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mvinterp import monomials, polynomial, solver
from mvinterp.fileio import format_nodes, parse_nodes, write_nodes
from mvinterp.monomials import count_total
from mvinterp.nodes import assemble_generic
from mvinterp.polynomial import MultiPoly, evaluate_rows
from mvinterp.solver import SolveConfig, solve

CONFIG = SolveConfig(lam=Fraction(11, 10))
# repeat solves read 2.96 (15, 4), 2.81 (8, 6) and 3.23 (20, 3) N-vectors;
# 2.96, 3.08 and 3.24 while every correction read all m variables, and 4.77
# and 4.52 while a solve copied the provenance and the row kernel gathered twice
REPEAT_PEAK_REALS = 3.25
# a first (20, 4) solve from cold monomial tables read 3.15 node tables,
# 3.11 while the plan kept the walk's per-leaf vectors as arrays, and 4.27
# while the monomial order held a tuple per monomial and a position dict
FIRST_PEAK_NODE_TABLES = 3.5
# a built (20, 4) order with every lift held 0.27 node tables; 2.05 with a
# tuple per monomial and a position dict
ORDER_NODE_TABLES = 0.5
# beyond the text, parse_nodes read 1.29 (15, 4) and 1.60 (8, 6) node
# tables, 4.37 and 5.11 while it split the text into a list of lines
PARSE_PEAK_NODE_TABLES = 2.0
# format_nodes read 2.01 and 2.02 texts, 2.19 and 2.36 while it joined one
# string per row; write_nodes 0.10 and 0.12, 2.22 and 2.37 while it wrote
# format_nodes' text
FORMAT_PEAK_TEXTS = 2.1
WRITE_PEAK_TEXTS = 0.25


def traced_peak(call):
    """The tracemalloc peak in bytes of call(), and what call returned."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m,n", [(15, 4), (8, 6), (20, 3)])
def test_repeat_solve_peaks_within_a_few_n_vectors(m, n):
    total = count_total(m, n)
    values = np.random.default_rng([53, m, n]).uniform(-1.0, 1.0, total)
    first, _, _ = solve(values, m, n, CONFIG)  # builds and keeps the plan
    peak, (again, _, _) = traced_peak(lambda: solve(values, m, n, CONFIG))
    solver.clear_plans()
    assert again.coeffs.tobytes() == first.coeffs.tobytes()
    assert peak <= REPEAT_PEAK_REALS * 8 * total


def test_first_large_solve_peaks_within_a_few_node_tables():
    m, n = 20, 4
    nodes, _, _ = assemble_generic(m, n, lam=CONFIG.lam)
    total = len(nodes)
    assert total == 10626
    coeffs = np.random.default_rng(42).uniform(-1.0, 1.0, total)
    values = evaluate_rows(MultiPoly(m, n, coeffs), nodes.points)
    # a first solve in a fresh process: no plan and no monomial table built
    solver.clear_plans()
    monomials.build_order.cache_clear()
    polynomial._row_steps.cache_clear()
    peak, (q, _, _) = traced_peak(lambda: solve(values, m, n, CONFIG))
    assert not solver._plans  # above PLAN_CACHE_REALS, so never kept
    assert peak <= FIRST_PEAK_NODE_TABLES * 8 * m * total
    assert np.abs(q.coeffs - coeffs).max() <= 1e-9


def test_a_built_order_holds_under_half_a_node_table():
    m, n = 20, 4
    solver.clear_plans()
    monomials.build_order.cache_clear()
    polynomial._row_steps.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        order = monomials.build_order(m, n)
        for a in range(m):
            order.lift(a)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= ORDER_NODE_TABLES * 8 * m * len(order)


@pytest.mark.parametrize("m,n", [(15, 4), (8, 6)])
def test_node_file_round_trip_holds_its_text_about_once_more(m, n, tmp_path):
    nodes, _, _ = assemble_generic(m, n, lam=CONFIG.lam, mu=np.linspace(-0.5, 0.25, m))
    text = format_nodes(nodes)
    peak, back = traced_peak(lambda: parse_nodes(text))
    assert back.points.tobytes() == nodes.points.tobytes()
    assert peak <= PARSE_PEAK_NODE_TABLES * 8 * m * len(nodes)
    peak, again = traced_peak(lambda: format_nodes(nodes))
    assert again == text
    assert peak <= FORMAT_PEAK_TEXTS * len(text)
    path = tmp_path / "nodes.csv"
    peak, _ = traced_peak(lambda: write_nodes(nodes, path))
    assert path.read_bytes() == text.encode("ascii")
    assert peak <= WRITE_PEAK_TEXTS * len(text)
