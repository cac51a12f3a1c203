"""CLI behavior: subcommands, file handoff, exit codes, determinism."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from mvinterp.cli import main
from mvinterp.fileio import parse_nodes, read_nodes, write_polynomial
from mvinterp.monomials import count_total
from mvinterp.polynomial import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- nodes


def test_nodes_emits_expected_row_count(capsys):
    code, out, _ = run(capsys, "nodes", "--m", "3", "--n", "3", "--lambda", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3,3,20"
    assert len(lines) == 21


def test_nodes_writes_parseable_file(tmp_path, capsys):
    target = tmp_path / "nodes.csv"
    code, out, _ = run(capsys, "nodes", "--m", "2", "--n", "4", "-o", str(target))
    assert code == 0 and out == ""
    nodes = read_nodes(target)
    assert len(nodes) == count_total(2, 4)


def test_nodes_respects_mu(tmp_path, capsys):
    plain = tmp_path / "a.nodes"
    shifted = tmp_path / "b.nodes"
    assert run(capsys, "nodes", "--m", "2", "--n", "2", "-o", str(plain))[0] == 0
    assert (
        run(capsys, "nodes", "--m", "2", "--n", "2", "--mu", "0.5,-0.25", "-o", str(shifted))[0]
        == 0
    )
    base = read_nodes(plain).points
    moved = read_nodes(shifted).points
    assert np.allclose(moved, base + np.array([0.5, -0.25]), atol=1e-12)


def test_wrong_length_mu_exit_codes(capsys):
    # a usage error for nodes and solve; bench reports it as a failed run
    assert run(capsys, "nodes", "--m", "3", "--n", "2", "--mu", "1,2")[0] == 1
    assert run(capsys, "solve", "runge", "--m", "3", "--n", "2", "--mu", "1,2")[0] == 1
    code, _, err = run(capsys, "bench", "--dims", "3..3", "--reps", "1", "--mu", "1,2")
    assert code == 2 and "mu has 2 entries" in err


# --------------------------------------------------------------------- verify


def test_verify_generated_nodes_are_generic(tmp_path, capsys):
    target = tmp_path / "n.nodes"
    run(capsys, "nodes", "--m", "3", "--n", "2", "-o", str(target))
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    report = json.loads(out)
    assert report["generic"] is True
    assert report["count"] == 10


def test_verify_collinear_reports_nongeneric_with_exit_zero(tmp_path, capsys):
    target = tmp_path / "bad.nodes"
    target.write_text("2,1,3\n0,0,-\n1,1,-\n2,2,-\n")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    report = json.loads(out)
    assert report["generic"] is False


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    return json.loads(text, parse_constant=reject)


def test_verify_prints_null_for_non_finite_numbers(tmp_path, capsys):
    # six points of the unit circle: a singular V(2,2), so the log
    # determinant is -inf and the condition number inf
    theta = 0.3 + np.arange(6) * np.pi / 3
    target = tmp_path / "circle.nodes"
    target.write_text(
        "2,2,6\n" + "".join(f"{float(np.cos(t))!r},{float(np.sin(t))!r},-\n" for t in theta)
    )
    code, out, _ = run(capsys, "verify", str(target))
    report = strict_json(out)
    assert code == 0 and report["generic"] is False
    assert report["abs_det_log"] is None and report["cond_1"] is None
    # above COND_DESK_LIMIT nodes cond_1 is not computed (nan)
    run(capsys, "nodes", "--m", "15", "--n", "4", "-o", str(target))
    code, out, _ = run(capsys, "verify", str(target))
    report = strict_json(out)
    assert code == 0 and report["generic"] is True
    assert report["cond_1"] is None and np.isfinite(report["abs_det_log"])


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    target = tmp_path / "broken.nodes"
    target.write_text("2,1\n0,0,-\n")
    code, _, err = run(capsys, "verify", str(target))
    assert code == 2
    assert "header" in err


def test_non_finite_inputs_exit_two(tmp_path, capsys):
    target = tmp_path / "inf.nodes"
    target.write_text("2,2,6\n0,0,-\n1,0,-\n0,1,-\n2,0,-\n1,1,-\ninf,2,-\n")
    code, out, err = run(capsys, "verify", str(target))
    assert (code, out) == (2, "")
    assert "inf.nodes:7: coordinates must be finite" in err
    code, out, err = run(capsys, "solve", "runge", "--m", "2", "--n", "2", "--mu", "inf")
    assert (code, out) == (2, "") and "mu has a non-finite entry" in err
    code, out, err = run(capsys, "nodes", "--m", "2", "--n", "3", "--mu", "nan")
    assert (code, out) == (2, "") and "mu has a non-finite entry" in err


def test_verify_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.nodes"))
    assert code == 2
    assert "absent.nodes" in err


# ---------------------------------------------------------------------- solve


def test_solve_random_poly_round_trip(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, _, err = run(
        capsys,
        "solve", "random-poly", "--m", "2", "--n", "3", "--seed", "5",
        "-o", str(out_path),
    )
    assert code == 0
    assert "seed=5" in err
    doc = json.loads(out_path.read_text())
    # the builtin's coefficients are reproducible from the echoed seed
    expected = np.random.default_rng(np.random.SeedSequence((5, 2, 3))).uniform(
        -1.0, 1.0, count_total(2, 3)
    )
    assert np.max(np.abs(np.array(doc["coefficients"]) - expected)) <= 1e-9
    report = doc["report"]
    assert report["multiply_adds"] > 0
    assert report["peak_reals_stored"] > 0
    assert report["wall_seconds"] > 0
    assert report["node_count"] == 10
    sidecar = read_nodes(report["nodes_file"])
    assert len(sidecar) == 10


def test_solve_polynomial_file_recovers_coefficients(tmp_path, capsys, rng):
    poly = MultiPoly(2, 2, rng.uniform(-1.0, 1.0, 6))
    source = tmp_path / "poly.json"
    write_polynomial(poly, source)
    code, out, _ = run(capsys, "solve", str(source))
    assert code == 0
    doc = json.loads(out)
    assert doc["ordering"] == "graded-lex-eqC"
    assert np.max(np.abs(np.array(doc["coefficients"]) - poly.coeffs)) <= 1e-10
    assert doc["report"]["nodes_file"] is None


def test_solve_builtin_runge(capsys):
    code, out, _ = run(capsys, "solve", "runge", "--m", "2", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["coefficients"]) == count_total(2, 4)


def test_solve_builtin_requires_dimensions(capsys):
    code, _, err = run(capsys, "solve", "exp-sum")
    assert code == 1
    assert "--m" in err


def test_solve_rejects_m_mismatch(tmp_path, capsys, rng):
    poly = MultiPoly(2, 2, rng.uniform(-1.0, 1.0, 6))
    source = tmp_path / "poly.json"
    write_polynomial(poly, source)
    code, _, err = run(capsys, "solve", str(source), "--m", "3")
    assert code == 1
    assert "does not match" in err


def test_solve_malformed_polynomial_exits_two(tmp_path, capsys):
    source = tmp_path / "broken.json"
    source.write_text('{"m": 2, "n": 1}')
    code, _, err = run(capsys, "solve", str(source))
    assert code == 2
    assert "missing field" in err


def test_solve_non_finite_function_exits_two(tmp_path, capsys):
    # the file's coefficients are finite (a file with a non-finite one is
    # refused when read), but --kappa 4 puts the outer nodes of the line at
    # |x| > 1, where 1e308 x overflows
    source = tmp_path / "inf.json"
    write_polynomial(MultiPoly(1, 2, [0.0, 1e308, 0.0]), str(source))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "solve", str(source), "--kappa", "4")
    assert code == 2
    # a callback is read leaf by leaf in walk order, so the node named is the
    # first one read, not necessarily node 0
    assert re.search(r"not finite at node \d+: inf", err)
    assert out == ""


@pytest.mark.parametrize("coefficient", ["NaN", "Infinity", "true"])
def test_solve_non_finite_polynomial_file_exits_two(tmp_path, capsys, coefficient):
    source = tmp_path / "bad.json"
    source.write_text(
        '{"m": 2, "n": 2, "ordering": "graded-lex-eqC",'
        f' "coefficients": [{coefficient}, 0, 0, 0, 0, 0]}}'
    )
    code, out, err = run(capsys, "solve", str(source))
    assert (code, out) == (2, "")
    assert str(source) in err
    assert "not finite at node" not in err


def test_solve_overflow_exits_two(tmp_path, capsys):
    # 1e308 (t - t^3) is finite at the nodes, but its divided differences
    # overflow, so every coefficient of the interpolant would be non-finite
    source = tmp_path / "huge.json"
    write_polynomial(MultiPoly(1, 5, [0.0, 1e308, 0.0, -1e308, 0.0, 0.0]), str(source))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "solve", str(source))
    assert code == 2
    assert "overflowed floating point" in err
    assert out == ""


def test_solve_ill_posed_geometry_exits_two(capsys):
    # the divisor products of (2, 90) at lambda 11/10 overflow
    code, out, err = run(capsys, "solve", "runge", "--m", "2", "--n", "90", "--lambda", "11/10")
    assert (code, out) == (2, "")
    assert "lambda/kappa configuration is ill posed" in err


# ---------------------------------------------------------------------- bench


def strip_timing(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "seconds"]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


def test_bench_default_accuracy_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, "bench", "--seed", "42", "-o", str(first))[0] == 0
    assert run(capsys, "bench", "--seed", "42", "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "m,n,N,method,rep,coeff_error_inf,values_checksum"
    assert len(lines) == 1 + 4 * 10 * 3


def test_bench_seed_echoed_when_defaulted(capsys):
    code, out, err = run(capsys, "bench", "--dims", "2..2", "--reps", "1")
    assert code == 0
    assert "seed=0" in err
    assert out.startswith("m,n,N,method")


def test_bench_runtime_deterministic_outside_timing_column(tmp_path, capsys):
    args = ("bench", "--experiment", "runtime", "--dims", "2..3", "--reps", "2", "--seed", "7")
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    assert run(capsys, *args, "-o", str(first))[0] == 0
    assert run(capsys, *args, "-o", str(second))[0] == 0
    assert strip_timing(first.read_text()) == strip_timing(second.read_text())
    assert first.read_text() != second.read_text()  # wall clock does vary


def test_bench_conditioning_schema(capsys):
    code, out, _ = run(
        capsys, "bench", "--experiment", "conditioning", "--dims", "2..3",
        "--degree", "1..2", "--seed", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,N,cond_1,cond_2_or_blank,bound_Nsq,within_bound"
    assert len(lines) == 5
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_bench_method_filter(capsys):
    code, out, _ = run(
        capsys, "bench", "--dims", "2..2", "--reps", "2", "--seed", "1",
        "--method", "pip-solver",
    )
    assert code == 0
    body = out.splitlines()[1:]
    assert len(body) == 2
    assert all(",pip-solver," in line for line in body)


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--reps", "0"),
        ("bench", "--dims", "5..2"),
        ("bench", "--dims", "x..y"),
        ("bench", "--seed", "-3"),
        ("bench", "--experiment", "sketching"),
        ("frobnicate",),
        ("solve",),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ------------------------------------------------------------------------ fit


def test_fit_reads_bench_output(tmp_path, capsys):
    csv_path = tmp_path / "ops.csv"
    run(
        capsys, "bench", "--experiment", "runtime", "--dims", "2..5", "--reps", "1",
        "--seed", "3", "-o", str(csv_path),
    )
    code, out, _ = run(
        capsys, "fit", str(csv_path), "N", "multiply_adds", "--method", "pip-solver"
    )
    assert code == 0
    fit = json.loads(out)
    assert fit["points"] == 4
    assert 1.0 <= fit["q"] <= 2.4
    assert fit["r_squared"] >= 0.98


def test_fit_exact_quadratic(tmp_path, capsys):
    csv_path = tmp_path / "exact.csv"
    csv_path.write_text("x,y\n1,1\n2,4\n3,9\n")
    code, out, _ = run(capsys, "fit", str(csv_path), "x", "y")
    assert code == 0
    fit = json.loads(out)
    assert fit["p"] == pytest.approx(1.0, abs=1e-12)
    assert fit["q"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_nonpositive_data_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("x,y\n1,0\n2,4\n3,9\n")
    code, _, err = run(capsys, "fit", str(csv_path), "x", "y")
    assert code == 2
    assert "positive" in err


def test_fit_unknown_column_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "cols.csv"
    csv_path.write_text("x,y\n1,1\n2,4\n3,9\n")
    code, _, err = run(capsys, "fit", str(csv_path), "x", "zz")
    assert code == 2
    assert "zz" in err


def test_fit_skips_blank_cells(tmp_path, capsys):
    csv_path = tmp_path / "blanks.csv"
    csv_path.write_text("x,y\n1,1\n2,\n2,4\n3,9\n")
    code, out, _ = run(capsys, "fit", str(csv_path), "x", "y")
    assert code == 0
    assert json.loads(out)["points"] == 3


def test_cli_node_file_handoff_matches_library(tmp_path, capsys):
    """nodes -> verify -> solve all agree on one geometry."""
    target = tmp_path / "n.nodes"
    run(capsys, "nodes", "--m", "2", "--n", "3", "--kappa", "2", "-o", str(target))
    nodes = read_nodes(target)
    from mvinterp.nodes import assemble_generic

    direct, _, _ = assemble_generic(2, 3, kappa=2.0)
    assert np.array_equal(nodes.points, direct.points)
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0 and json.loads(out)["generic"] is True
