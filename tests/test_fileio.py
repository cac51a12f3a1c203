"""Node and polynomial file formats: round trips and malformed-input errors."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from mvinterp import cli, fileio
from mvinterp.fileio import (
    FileFormatError,
    format_nodes,
    format_polynomial,
    node_blocks,
    parse_nodes,
    parse_polynomial,
    read_nodes,
    read_polynomial,
    write_nodes,
    write_polynomial,
)
from mvinterp.nodes import NodeSet, assemble_generic
from mvinterp.polynomial import MultiPoly


def _rotated_frame(m):
    frame = np.eye(m)
    if m >= 2:
        c, s = np.cos(0.3), np.sin(0.3)
        frame[:2, :2] = [[c, -s], [s, c]]
    return frame


def _one_template_blocks(nodes):
    """The reference node_blocks: every row formatted with one "%" template."""
    line = ",".join(["%.17g"] * nodes.m) + ",%s\n"
    yield f"{nodes.m},{nodes.n},{len(nodes)}\n"
    for start in range(0, len(nodes), fileio.NODE_BLOCK_ROWS):
        rows = nodes.points[start : start + fileio.NODE_BLOCK_ROWS].tolist()
        labels = nodes.provenance[start : start + fileio.NODE_BLOCK_ROWS]
        yield "".join([line % (*row, label) for row, label in zip(rows, labels)])


def _assert_formats_as_reference(nodes):
    blocks = list(_one_template_blocks(nodes))
    assert list(node_blocks(nodes)) == blocks
    assert format_nodes(nodes) == "".join(blocks)


def test_node_format_round_trip_is_exact():
    for m, n in itertools.product(range(1, 7), range(6)):
        shifted = dict(frame=_rotated_frame(m), lam=Fraction(11, 10), kappa=0.5, mu=np.linspace(-0.75, 1.5, m))
        for geometry in ({}, shifted):
            nodes, _, _ = assemble_generic(m, n, **geometry)
            _assert_formats_as_reference(nodes)
            back = parse_nodes(format_nodes(nodes))
            # 17 significant digits pin each double exactly
            assert back.points.tobytes() == nodes.points.tobytes()
            assert back.points.shape == nodes.points.shape
            assert back.provenance == nodes.provenance
            assert (back.m, back.n) == (m, n)


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
    assert parse_nodes(text).provenance == ("-",) * 4


# malformed node texts and a fragment of the message each must raise
MALFORMED_NODE_TEXTS = [
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
    # a row of m fields (no label) and one of m + 2
    ("2,1,1\n0,1\n", "bad.nodes:2: expected 2 coordinates plus a provenance label, got 2 fields"),
    ("2,1,1\n0,1,0,1\n", "bad.nodes:2: expected 2 coordinates plus a provenance label, got 4 fields"),
    ("2,1,2\n0,0,-\n1e400,0,-\n", "bad.nodes:3: coordinates must be finite"),
    ("2,1,2\n0,0,0\n0.5,-1e400,1\n", "bad.nodes:3: coordinates must be finite"),
    # a bad label after valid coordinates
    ("2,1,1\n0,0,01x\n", "bad.nodes:2: provenance must be a 0/1 bit string or '-', got '01x'"),
    ("2,1,2\n0,0,0\n1,1,\n", "bad.nodes:3: provenance must be a 0/1 bit string or '-', got ''"),
    # the array parser strips \x1f around a number; float() refuses it
    ("2,1,1\n\x1f0,0,-\n", "bad.nodes:2: bad coordinate: could not convert string to float: '\\x1f0'"),
]

# malformed node texts, their source and the whole message each must raise
NUMBERED_NODE_TEXTS = [
    ("2,1,2\n0,0,-\n1,broken,-\n", "f", r"^f:3:"),
    ("2,1,3\n0,0,-\n1,0,-\n0,-inf,-\n", "f", r"^f:4: coordinates must be finite"),
    # blank lines are skipped but still counted
    ("2,1,3\n\n0,0,-\n1,0,-\n0,x,-\n", "<string>", r"^<string>:5: bad coordinate"),
    ("\n2,1,3\n0,0,-\n\n1,0,-\n0,nan,-\n", "f", r"^f:6: coordinates must be finite"),
    ("\n  \n2,1\n", "f", r"^f:3: header must be m,n,count"),
    # whitespace-only lines between rows, and CRLF endings
    ("2,1,2\n0,0,0\n  \n\t\n1,x,1\n", "f", r"^f:5: bad coordinate: could not convert string to float: 'x'$"),
    ("2,1,2\r\n0,0,0\r\n\r\n1,0,1x\r\n", "f", r"^f:4: provenance must be a 0/1 bit string or '-', got '1x'$"),
    ("2,1,2\n0,0,-\n1e400,0,-\n", "f", r"^f:3: coordinates must be finite$"),
    ("2,1,2\n\n0,0,0\n\n1,0\n", "f", r"^f:5: expected 2 coordinates plus a provenance label, got 2 fields$"),
]


@pytest.mark.parametrize("text,fragment", MALFORMED_NODE_TEXTS)
def test_parse_nodes_names_the_problem(text, fragment):
    with pytest.raises(FileFormatError) as err:
        parse_nodes(text, source="bad.nodes")
    assert fragment in str(err.value)
    assert "bad.nodes" in str(err.value)


def test_parse_nodes_reports_line_numbers():
    for text, source, message in NUMBERED_NODE_TEXTS:
        with pytest.raises(FileFormatError, match=message):
            parse_nodes(text, source=source)


@pytest.mark.parametrize(
    "text,source",
    [(text, "bad.nodes") for text, _ in MALFORMED_NODE_TEXTS]
    + [(text, source) for text, source, _ in NUMBERED_NODE_TEXTS]
    + [
        ("2,1,2\n0,0,-\n1,1,-\n2,2,-", "f"),  # one row too many, no final newline
        ("2,1,2\n0,0,-\n", "f"),
        ("2,1,1\n0,,-\n", "f"),
        ("2,1,2\n0,0,-\r1,x,-\r", "f"),
        ("2,1,1\n0,0\x0c,-\n", "f"),
        ("2,1,1\n0,0,1,\n", "f"),
        ("2,-1,1\n0,0,-\n", "f"),
        ("3,1,1\n0,0,-\n", "f"),
    ],
)
def test_parse_nodes_messages_are_the_strict_readers(text, source):
    # the one-pass reader raises nothing of its own: every malformed text
    # gets the message of the strict reader, line number included
    with pytest.raises(FileFormatError) as strict:
        fileio._parse_strict(text, source)
    with pytest.raises(FileFormatError) as err:
        parse_nodes(text, source=source)
    assert str(err.value) == str(strict.value)


def _loose_spellings(text: str) -> dict:
    """Irregular but valid spellings of a node file's text."""
    head, *rows = text.splitlines()

    def underscored(line, fields):  # "_" between any two digits of the first fields
        split = line.split(",")
        return ",".join([re.sub(r"(?<=\d)(?=\d)", "_", f) for f in split[:fields]] + split[fields:])

    return {
        "no trailing newline": text[:-1],
        "blank lines": "\n\n" + head + "\n\n" + "\n\n".join(rows) + "\n\n",
        "whitespace-only lines": " \t\n" + head + "\n  \n" + "\n\t\n".join(rows) + "\n",
        "CRLF": text.replace("\n", "\r\n"),
        "lone CR": text.replace("\n", "\r"),
        "form feed": text.replace("\n", "\x0c"),
        "spaces around fields": text.replace(",", " , ").replace("\n", " \n"),
        "underscores in numbers": "\n".join([underscored(head, 3)] + [underscored(row, -1) for row in rows]) + "\n",
    }


@pytest.mark.parametrize("m,n", [(1, 3), (3, 3), (2, 0)])
def test_parse_nodes_reads_irregular_spellings_of_a_file(m, n):
    nodes, _, _ = assemble_generic(m, n, frame=_rotated_frame(m), lam=Fraction(11, 10), mu=np.linspace(-0.75, 1.5, m))
    for name, text in _loose_spellings(format_nodes(nodes)).items():
        back = parse_nodes(text)
        assert back.points.tobytes() == nodes.points.tobytes(), name
        assert back.points.shape == nodes.points.shape, name
        assert back.provenance == nodes.provenance, name
        assert (back.m, back.n) == (m, n), name


def test_well_formed_node_files_take_one_pass(monkeypatch):
    def strict(text, source):
        raise AssertionError(f"strict reader called on {text[:40]!r}")

    monkeypatch.setattr(fileio, "_parse_strict", strict)
    for m, n in ((1, 0), (1, 4), (2, 1), (4, 3), (3, 5)):
        nodes, _, _ = assemble_generic(m, n, mu=np.linspace(-1.0, 1.0, m))
        for text in (format_nodes(nodes), format_nodes(nodes)[:-1]):
            back = parse_nodes(text)
            assert back.points.tobytes() == nodes.points.tobytes()
            assert back.provenance == nodes.provenance


def test_node_file_rows_of_one_leaf_share_one_label_string():
    nodes, tree, _ = assemble_generic(8, 6, lam=Fraction(11, 10))
    text = format_nodes(nodes)
    # the one-pass reader, then the strict reader's row loop on CRLF and on blank lines
    for spelling in (text, text.replace("\n", "\r\n"), text.replace("\n", "\n\n")):
        back = parse_nodes(spelling)
        assert back.points.tobytes() == nodes.points.tobytes()
        assert back.provenance == nodes.provenance
        assert len(set(map(id, back.provenance))) == tree.leaf_count
        for _, run in itertools.groupby(back.provenance):
            first, *rest = run
            assert all(label is first for label in rest)


def test_node_file_writers_emit_format_nodes_bytes(tmp_path, capsys):
    mu = np.linspace(-0.5, 0.25, 15)
    nodes, _, _ = assemble_generic(15, 4, lam=Fraction(11, 10), mu=mu)
    text = format_nodes(nodes).encode("ascii")
    assert text == b"".join(block.encode("ascii") for block in node_blocks(nodes))
    write_nodes(nodes, tmp_path / "write.nodes")
    assert (tmp_path / "write.nodes").read_bytes() == text
    args = ["nodes", "--m", "15", "--n", "4", "--lambda", "11/10", "--mu=" + ",".join(map(repr, mu.tolist()))]
    assert cli.main(args + ["-o", str(tmp_path / "cli.nodes")]) == 0
    assert (tmp_path / "cli.nodes").read_bytes() == text
    assert cli.main(args) == 0
    assert capsys.readouterr().out.encode("ascii") == text


@pytest.mark.parametrize("m,n", [(8, 6), (15, 4)])
@pytest.mark.parametrize("lam", [2, Fraction(11, 10)])
def test_node_blocks_match_the_one_template_formatter(m, n, lam):
    nodes, _, _ = assemble_generic(m, n, lam=lam, mu=np.linspace(-0.5, 0.25, m))
    _assert_formats_as_reference(nodes)


def test_node_blocks_reuse_text_only_for_equal_bits():
    # equal values with different bits (0.0 and -0.0) side by side, within
    # blocks and across block boundaries; the first block repeats no cell
    values = np.array([0.0, -0.0, 5e-324, 1.5, -2.25])
    rows = fileio.NODE_BLOCK_ROWS
    picks = np.random.default_rng(11).integers(0, len(values), (3 * rows + 9, 3))
    picks[:rows] = (np.arange(rows)[:, None] + np.arange(3)) % len(values)
    points = values[picks]
    points[rows] = [1.5, -2.25, -0.0]  # the row above is 1.5, -2.25, 0.0
    points[2 * rows - 1 : 2 * rows + 1] = [[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5]]
    points[2 * rows + 4 : 2 * rows + 9] = points[2 * rows + 3]  # repeated rows
    nodes = NodeSet(points, ["-"] * len(points), 3, 2)
    _assert_formats_as_reference(nodes)
    back = parse_nodes(format_nodes(nodes))
    assert back.points.tobytes() == points.tobytes()


def _nodes_with(label="1", value=0.5, n=1):
    return NodeSet([[0.0, 0.0], [1.0, value]], ["0", label], 2, n)


@pytest.mark.parametrize(
    "nodes,message",
    [
        (_nodes_with(label="a,b"), "provenance must be a 0/1 bit string or '-', got 'a,b'"),
        (_nodes_with(label="01\n1"), r"got '01\n1'"),
        (_nodes_with(label=""), "got ''"),
        (_nodes_with(label="2"), "got '2'"),
        (_nodes_with(label=1), "got 1"),
        (_nodes_with(label=["1"]), "got ['1']"),
        (_nodes_with(value=float("nan")), "node 1 is not finite: [1.0, nan]"),
        (_nodes_with(value=float("inf")), "node 1 is not finite"),
        (_nodes_with(value=-float("inf")), "node 1 is not finite"),
        (_nodes_with(n=-1), "n >= 0"),
        (NodeSet(np.empty((0, 2)), [], 2, 1), "count=0"),
    ],
)
def test_node_writers_refuse_what_the_reader_refuses(nodes, message, tmp_path):
    if all(isinstance(label, str) for label in nodes.provenance):
        with pytest.raises(FileFormatError):
            parse_nodes("".join(_one_template_blocks(nodes)))
    with pytest.raises(ValueError, match=re.escape(message)):
        node_blocks(nodes)  # before the first block is asked for
    with pytest.raises(ValueError, match=re.escape(message)):
        format_nodes(nodes)
    path = tmp_path / "refused.nodes"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_nodes(nodes, path)
    assert not path.exists()


def test_node_writers_check_each_distinct_label_once(monkeypatch):
    nodes, tree, _ = assemble_generic(8, 6, lam=Fraction(11, 10))
    checked = []
    monkeypatch.setattr(fileio, "_bad_label", lambda label: checked.append(label) or False)
    format_nodes(nodes)
    assert sorted(checked) == sorted(set(nodes.provenance))
    assert len(checked) == tree.leaf_count


@pytest.mark.parametrize(
    "text,points,labels",
    [
        # float() reads 1_0; the array parser does not
        ("2,1,1\n1_0,0,-\n", [[10.0, 0.0]], ("-",)),
        ("2,1,2\n0,0,0\n1,1_000,1\n", [[0.0, 0.0], [1.0, 1000.0]], ("0", "1")),
        # spaces around fields
        ("2,1,2\n 0 , 1 , 0 \n1,\t0,1\n", [[0.0, 1.0], [1.0, 0.0]], ("0", "1")),
        ("2,1,2\r\n0,0,0\r\n1,0,1\r\n", [[0.0, 0.0], [1.0, 0.0]], ("0", "1")),
        ("2,1,2\n0,0,0\n   \n\t\n1,0,1\n", [[0.0, 0.0], [1.0, 0.0]], ("0", "1")),
        ("1,1,2\n-0,-\n1e-400,-\n", [[-0.0], [0.0]], ("-", "-")),
    ],
)
def test_parse_nodes_reads_loose_rows(text, points, labels):
    back = parse_nodes(text)
    assert back.points.tobytes() == np.array(points).tobytes()
    assert back.points.shape == np.shape(points)
    assert back.provenance == labels


def test_parse_nodes_accepts_degenerate_geometry():
    """Duplicate-free but singular sets must load; verification judges them."""
    back = parse_nodes("2,1,3\n0,0,-\n1,1,-\n2,2,-\n")
    assert len(back) == 3


def test_non_ascii_node_file_names_the_line(tmp_path):
    path = tmp_path / "accent.nodes"
    path.write_bytes("2,1,3\n0,0,0\n1,0,1\u00e9\n0,1,1\n".encode("utf-8"))
    with pytest.raises(FileFormatError, match=r"accent.nodes:3: byte 0xc3 at offset 17 is not ASCII$"):
        read_nodes(path)


def test_non_ascii_polynomial_file_names_the_line(tmp_path):
    path = tmp_path / "accent.json"
    path.write_bytes(b'{\r\n  "m": 1,\r\n  "n": 0,\xa0\r\n  "ordering": "graded-lex-eqC"}')
    with pytest.raises(FileFormatError, match=r"accent.json:3: byte 0xa0 at offset 23 is not ASCII$"):
        read_polynomial(path)


def test_polynomial_file_counts_lines_at_any_newline(tmp_path):
    path = tmp_path / "mac.json"
    for newline in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(newline.join([b"{", b'"m": 1,', b'"n": 0,', b'"ordering": x}']))
        with pytest.raises(FileFormatError, match=r"mac.json:4: not valid JSON"):
            read_polynomial(path)


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
    "coeffs,message",
    [
        ([1.0, float("nan")], "coefficient 1 is not finite: nan"),
        ([float("inf"), 0.0, -float("inf")], "coefficient 0 is not finite: inf"),
        ([0.0, 1e308, -float("inf")], "coefficient 2 is not finite: -inf"),
    ],
)
def test_polynomial_writers_refuse_what_the_reader_refuses(coeffs, message, tmp_path):
    poly = MultiPoly(1, len(coeffs) - 1, coeffs)
    with pytest.raises(ValueError, match=re.escape(message)):
        format_polynomial(poly)
    path = tmp_path / "refused.json"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_polynomial(poly, path)
    assert not path.exists()


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
