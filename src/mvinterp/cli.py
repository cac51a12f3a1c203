"""Command-line surface: node generation, solving, verification, benchmarks.

Subcommands
-----------
nodes    emit the generated node file for (m, n) and the geometry flags
solve    interpolate a builtin function or a polynomial file; emit the
         coefficient document plus a run report
verify   read a node file and print its regularity certificate
bench    run an experiment grid and emit CSV
fit      fit y = p * x^q to two columns of a CSV

Exit codes: 0 success, 1 usage error, 2 numerical or configuration failure.
Every random draw is governed by --seed (echoed to stderr when defaulted).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .bench import METHODS, ExperimentConfig, fit_power_law, format_csv, mu_vector, run_experiment
from .exceptions import (
    DegenerateInputError,
    GeometryConfigError,
    SingularMatrixError,
    SizingError,
)
from .fileio import (
    FileFormatError,
    format_polynomial,
    node_blocks,
    read_nodes,
    read_polynomial,
    write_nodes,
)
from .monomials import count_total
from .nodes import assemble_generic
from .polynomial import MultiPoly, evaluate
from .solver import SolveConfig, solve
from .vandermonde import genericity_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

BUILTINS = ("runge", "exp-sum", "random-poly")


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> tuple:
    """"A..B" inclusive, or a single integer "A" meaning A..A."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected INT or A..B, got {text!r}")


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}")


def _parse_mu(text: str) -> list:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def _add_geometry_flags(parser) -> None:
    parser.add_argument("--lambda", dest="lam", type=_parse_lambda, default=Fraction(2),
                        help="hyperplane offset base, rational, > 1 (default 2)")
    parser.add_argument("--kappa", type=float, default=1.0,
                        help="Chebyshev node spread on line leaves (default 1)")
    parser.add_argument("--mu", type=_parse_mu, default=None,
                        help="node-set translation: one real (broadcast) or m comma-separated reals")


def build_parser() -> _Parser:
    parser = _Parser(prog="mvinterp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_nodes = sub.add_parser("nodes", help="emit a generated node file")
    p_nodes.add_argument("--m", type=int, required=True)
    p_nodes.add_argument("--n", type=int, required=True)
    _add_geometry_flags(p_nodes)
    p_nodes.add_argument("-o", "--output", default=None)

    p_solve = sub.add_parser("solve", help="interpolate a builtin or polynomial file")
    p_solve.add_argument("function",
                         help=f"polynomial file path or one of {', '.join(BUILTINS)}")
    p_solve.add_argument("--m", type=int, default=None)
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=None,
                         help="coefficient seed for random-poly (default 0, echoed)")
    _add_geometry_flags(p_solve)
    p_solve.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="regularity certificate for a node file")
    p_verify.add_argument("nodefile")

    p_bench = sub.add_parser("bench", help="run an experiment grid, emit CSV")
    p_bench.add_argument("--experiment", choices=("accuracy", "runtime", "conditioning"),
                         default="accuracy")
    p_bench.add_argument("--dims", type=_parse_range, default=(2, 5),
                         help="dimension range A..B (default 2..5)")
    p_bench.add_argument("--degree", type=_parse_range, default=(3, 3),
                         help="degree or degree range A..B (default 3)")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=None,
                         help="experiment seed (default 0, echoed)")
    p_bench.add_argument("--method", action="append", choices=METHODS, default=None,
                         help="restrict methods; repeatable (default: all)")
    _add_geometry_flags(p_bench)
    p_bench.add_argument("-o", "--output", default=None)

    p_fit = sub.add_parser("fit", help="fit y = p*x^q to two CSV columns")
    p_fit.add_argument("csvfile")
    p_fit.add_argument("xcol")
    p_fit.add_argument("ycol")
    p_fit.add_argument("--method", default=None,
                       help="keep only rows whose 'method' column matches")

    return parser


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii") as handle:
            handle.write(text)


def _echoed_seed(seed) -> int:
    if seed is None:
        seed = 0
        print("seed=0 (defaulted)", file=sys.stderr)
    else:
        print(f"seed={seed}", file=sys.stderr)
    if seed < 0:
        raise UsageError("seed must be a non-negative integer")
    return seed


def _builtin_callback(name: str, m: int, n: int, seed):
    if name == "runge":
        return lambda p: 1.0 / (1.0 + float(p @ p)), None
    if name == "exp-sum":
        return lambda p: float(np.exp(-(p * p)).sum()), None
    coeffs = np.random.default_rng(
        np.random.SeedSequence((seed, m, n))
    ).uniform(-1.0, 1.0, count_total(m, n))
    truth = MultiPoly(m, n, coeffs)
    return (lambda p: evaluate(truth, p)), truth


def cmd_nodes(args) -> int:
    nodes, _, _ = assemble_generic(
        args.m, args.n, lam=args.lam, kappa=args.kappa,
        mu=_mu_for(args.mu, args.m),
    )
    if args.output is None:
        sys.stdout.writelines(node_blocks(nodes))
    else:
        write_nodes(nodes, args.output)
    return EXIT_OK


def _mu_for(mu, m: int):
    try:
        return mu_vector(mu, m)
    except ValueError as bad:
        raise UsageError(f"--mu: {bad}") from None


def cmd_solve(args) -> int:
    name = args.function
    if name in BUILTINS:
        if args.m is None or args.n is None:
            raise UsageError(f"builtin {name!r} requires --m and --n")
        m, n = args.m, args.n
        seed = _echoed_seed(args.seed) if name == "random-poly" else args.seed
        callback, _ = _builtin_callback(name, m, n, seed)
    else:
        poly = read_polynomial(name)
        m = poly.m if args.m is None else args.m
        n = poly.n if args.n is None else args.n
        if m != poly.m:
            raise UsageError(f"--m {m} does not match the file's m={poly.m}")
        callback = lambda p: evaluate(poly, p)

    config = SolveConfig(lam=args.lam, kappa=args.kappa, mu=_mu_for(args.mu, m))
    start = time.perf_counter()
    result, nodes, report = solve(callback, m, n, config=config)
    wall = time.perf_counter() - start

    nodes_file = None
    if args.output is not None:
        nodes_file = args.output + ".nodes"
        write_nodes(nodes, nodes_file)
    doc = json.loads(format_polynomial(result))
    doc["report"] = {
        "multiply_adds": report["multiply_adds"],
        "peak_reals_stored": report["peak_reals_stored"],
        "largest_single_alloc": report["largest_single_alloc"],
        "wall_seconds": wall,
        "node_count": len(nodes),
        "nodes_file": nodes_file,
    }
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    nodes = read_nodes(args.nodefile)
    certificate = genericity_check(nodes, nodes.m, nodes.n)
    doc = {
        "m": nodes.m,
        "n": nodes.n,
        "count": len(nodes),
        "generic": bool(certificate["generic"]),
        "abs_det_log": float(certificate["abs_det_log"]),
        "cond_1": float(certificate["cond_1"]),
        "route": certificate["route"],
    }
    for key in ("abs_det_log", "cond_1"):  # JSON has no number for inf or nan
        doc[key] = doc[key] if np.isfinite(doc[key]) else None
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    seed = _echoed_seed(args.seed)
    try:
        cfg = ExperimentConfig(
            experiment=args.experiment,
            dims=args.dims,
            degrees=args.degree,
            reps=args.reps,
            seed=seed,
            methods=tuple(args.method) if args.method else METHODS,
            lam=args.lam,
            kappa=args.kappa,
            mu=args.mu,
        )
    except ValueError as bad:
        raise UsageError(str(bad)) from None
    fieldnames, rows = run_experiment(cfg)
    _emit(format_csv(fieldnames, rows), args.output)
    return EXIT_OK


def cmd_fit(args) -> int:
    with open(args.csvfile, "r", encoding="ascii", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if not rows:
        raise FileFormatError(f"{args.csvfile}: no data rows")
    for column in (args.xcol, args.ycol):
        if column not in rows[0]:
            raise FileFormatError(
                f"{args.csvfile}: no column {column!r}; have {sorted(rows[0])}"
            )
    if args.method is not None:
        if "method" not in rows[0]:
            raise FileFormatError(f"{args.csvfile}: no 'method' column to filter on")
        rows = [row for row in rows if row["method"] == args.method]
    pairs = []
    for row in rows:
        x_text, y_text = row[args.xcol].strip(), row[args.ycol].strip()
        if not x_text or not y_text:
            continue  # blank cells (e.g. skipped cond_2 sizes) carry no data
        try:
            pairs.append((float(x_text), float(y_text)))
        except ValueError:
            raise FileFormatError(
                f"{args.csvfile}: non-numeric value in column "
                f"{args.xcol!r}/{args.ycol!r}: {x_text!r}, {y_text!r}"
            ) from None
    fit = fit_power_law(pairs)
    doc = {"p": fit.p, "q": fit.q, "r_squared": fit.r_squared, "points": len(pairs)}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


COMMANDS = {
    "nodes": cmd_nodes,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as stop:  # --help
        return int(stop.code or 0)
    try:
        return COMMANDS[args.command](args)
    except UsageError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE
    except (
        FileFormatError,
        OSError,
        SingularMatrixError,
        DegenerateInputError,
        GeometryConfigError,
        SizingError,
        ValueError,
        ArithmeticError,
    ) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
