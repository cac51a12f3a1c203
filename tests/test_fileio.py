"""Node and polynomial file formats: round trips and malformed-input errors."""

from __future__ import annotations

import numpy as np
import pytest

from mvinterp.fileio import (
    FileFormatError,
    format_nodes,
    format_polynomial,
    parse_nodes,
    parse_polynomial,
    read_nodes,
    read_polynomial,
    write_nodes,
    write_polynomial,
)
from mvinterp.nodes import NodeSet, assemble_generic
from mvinterp.polynomial import MultiPoly


def test_node_format_round_trip_is_exact():
    nodes, _, _ = assemble_generic(2, 2)
    back = parse_nodes(format_nodes(nodes))
    # 17 significant digits pin each double exactly
    assert np.array_equal(back.points, nodes.points)
    assert back.provenance == nodes.provenance
    assert (back.m, back.n) == (2, 2)


def test_node_format_layout():
    nodes, _, _ = assemble_generic(2, 2)
    lines = format_nodes(nodes).splitlines()
    assert lines[0] == "2,2,6"
    assert len(lines) == 7
    assert lines[1] == "0,0,0"
    # the line-leaf block carries full-precision Chebyshev coordinates
    assert lines[4] == "0.86602540378443871,2,1"


def test_node_file_round_trip_on_disk(tmp_path):
    nodes, _, _ = assemble_generic(3, 2)
    path = tmp_path / "n32.nodes"
    write_nodes(nodes, path)
    back = read_nodes(path)
    assert np.array_equal(back.points, nodes.points)


def test_node_base_case_uses_dash_provenance():
    nodes, _, _ = assemble_generic(1, 3)
    text = format_nodes(nodes)
    for line in text.splitlines()[1:]:
        assert line.endswith(",-")
    assert parse_nodes(text).provenance == ["-"] * 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty node file"),
        ("2,2\n", "header must be m,n,count"),
        ("a,b,c\n", "must be integers"),
        ("2,2,3\n0,0,-\n1,1,-\n", "announces 3 nodes"),
        ("2,1,1\n0,0,oops,-\n", "expected 2 coordinates"),
        ("2,1,1\nx,0,-\n", "bad coordinate"),
        ("2,1,1\ninf,0,-\n", "must be finite"),
        ("2,1,1\n0,nan,-\n", "must be finite"),
        ("2,1,1\n0,0,2\n", "provenance"),
        ("0,1,1\n0,-\n", "out of range"),
    ],
)
def test_parse_nodes_names_the_problem(text, fragment):
    with pytest.raises(FileFormatError) as err:
        parse_nodes(text, source="bad.nodes")
    assert fragment in str(err.value)
    assert "bad.nodes" in str(err.value)


def test_parse_nodes_reports_line_numbers():
    with pytest.raises(FileFormatError) as err:
        parse_nodes("2,1,2\n0,0,-\n1,broken,-\n", source="f")
    assert str(err.value).startswith("f:3:")
    with pytest.raises(FileFormatError, match=r"^f:4: coordinates must be finite"):
        parse_nodes("2,1,3\n0,0,-\n1,0,-\n0,-inf,-\n", source="f")
    # blank lines are skipped but still counted
    with pytest.raises(FileFormatError, match=r"^<string>:5: bad coordinate"):
        parse_nodes("2,1,3\n\n0,0,-\n1,0,-\n0,x,-\n")
    with pytest.raises(FileFormatError, match=r"^f:6: coordinates must be finite"):
        parse_nodes("\n2,1,3\n0,0,-\n\n1,0,-\n0,nan,-\n", source="f")
    with pytest.raises(FileFormatError, match=r"^f:3: header must be m,n,count"):
        parse_nodes("\n  \n2,1\n", source="f")


def test_parse_nodes_accepts_degenerate_geometry():
    """Duplicate-free but singular sets must load; verification judges them."""
    back = parse_nodes("2,1,3\n0,0,-\n1,1,-\n2,2,-\n")
    assert len(back) == 3


def test_polynomial_round_trip_is_exact(rng):
    poly = MultiPoly(3, 2, rng.uniform(-1.0, 1.0, 10))
    back = parse_polynomial(format_polynomial(poly))
    assert np.array_equal(back.coeffs, poly.coeffs)
    assert (back.m, back.n) == (3, 2)


def test_polynomial_file_round_trip_on_disk(tmp_path, rng):
    poly = MultiPoly(2, 4, rng.uniform(-5.0, 5.0, 15))
    path = tmp_path / "p.json"
    write_polynomial(poly, path)
    assert np.array_equal(read_polynomial(path).coeffs, poly.coeffs)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "not valid JSON"),
        ("[1,2]", "top level must be an object"),
        ('{"m": 2, "n": 1, "coefficients": [0,0,0]}', "missing field 'ordering'"),
        (
            '{"m": 2, "n": 1, "ordering": "alphabetical", "coefficients": [0,0,0]}',
            "'ordering'",
        ),
        (
            '{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0,0]}',
            "list of 3 reals",
        ),
        (
            '{"m": 0, "n": 1, "ordering": "graded-lex-eqC", "coefficients": []}',
            "'m'/'n'",
        ),
        (
            '{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, "x", 0]}',
            "non-numeric",
        ),
        # JSON booleans load as Python bools, an int subclass
        ('{"m": true, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, 0]}', "'m'/'n'"),
        ('{"m": 2, "n": false, "ordering": "graded-lex-eqC", "coefficients": [0]}', "'m'/'n'"),
        ('{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, true, 0]}', "non-numeric"),
        ('{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, "1.5", 0]}', "non-numeric"),
        ('{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, 0, NaN]}', "coefficient 2 is not finite: nan"),
        ('{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [-Infinity, 0, 0]}', "coefficient 0 is not finite: -inf"),
        ('{"m": 2, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, 1e400, 0]}', "coefficient 1 is not finite: inf"),
    ],
)
def test_parse_polynomial_names_the_problem(text, fragment):
    with pytest.raises(FileFormatError) as err:
        parse_polynomial(text, source="bad.json")
    assert fragment in str(err.value)
    assert "bad.json" in str(err.value)


def test_parse_polynomial_refuses_an_integer_beyond_the_float_range():
    text = '{"m": 1, "n": 1, "ordering": "graded-lex-eqC", "coefficients": [0, 1%s]}' % ("0" * 400)
    with pytest.raises(FileFormatError, match="bad.json: coefficient 1 is not finite: inf"):
        parse_polynomial(text, source="bad.json")


def test_node_set_from_parse_supports_slicing():
    nodes, _, _ = assemble_generic(2, 3)
    back = parse_nodes(format_nodes(nodes))
    assert isinstance(back, NodeSet)
    assert back.provenance == nodes.provenance
