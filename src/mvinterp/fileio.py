"""Plain-text formats for node sets and polynomial coefficient files.

Node files: a header line "m,n,count", then one row per node holding the
m coordinates as decimals with 17 significant digits followed by the
provenance bit string of the leaf that produced the node ("-" for the
root, the one leaf of a base case's tree).

Polynomial files: a JSON document with fields m, n (integers), ordering
(the fixed string "graded-lex-eqC") and coefficients (finite JSON
numbers), position-matched to the canonical monomial order.  JSON float
text round-trips at full precision.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .monomials import count_total
from .nodes import NodeSet
from .polynomial import MultiPoly

__all__ = [
    "FileFormatError",
    "ORDERING_TAG",
    "NODE_BLOCK_ROWS",
    "format_nodes",
    "node_blocks",
    "parse_nodes",
    "read_nodes",
    "write_nodes",
    "format_polynomial",
    "parse_polynomial",
    "read_polynomial",
    "write_polynomial",
]

ORDERING_TAG = "graded-lex-eqC"


class FileFormatError(ValueError):
    """A node or polynomial file violates its format; message names the spot."""


# rows a node file is formatted and written in at a time
NODE_BLOCK_ROWS = 64
# the line breaks str.splitlines takes in ASCII besides "\n", and \x1f,
# which the array parser strips around a number and float() refuses
_LOOSE_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x1f"


def node_blocks(nodes: NodeSet):
    """The text of a node file in pieces: the header line, then blocks of
    NODE_BLOCK_ROWS rows, each line ended by "\n".  Only one block is held
    at a time.

    Raises ValueError, before any text is made, on a set parse_nodes would
    refuse: no rows, m < 1 or n < 0, a non-finite coordinate, or a label
    that is neither a 0/1 bit string nor "-".

    Assembled nodes of one leaf lie on a line or flat along the frame
    axes, so consecutive rows often repeat coordinates bit for bit (88% of
    the cells at (15, 4) and 80% at (8, 6) with the identity frame).  A
    cell whose bits equal the cell above reuses that cell's text; only the
    other cells are formatted, with "%.17g".  Comparing bits keeps 0.0 and
    -0.0 apart.  A block in which no cell repeats the one above, as in a
    rotated frame, formats each row with one "%" template: the per-cell
    path alone formats rotated (15, 4), (8, 6) and (10, 4) sets 25%, 17%
    and 19% slower (best of 15 at (15, 4): 27.8 against 34.7 ms).
    """
    m, count = nodes.m, len(nodes)
    if m < 1 or nodes.n < 0 or count < 1:
        raise ValueError(f"a node file needs m >= 1, n >= 0 and a node: m={m} n={nodes.n} count={count}")
    finite = np.isfinite(nodes.points)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=1))[0]
        raise ValueError(f"node {bad} is not finite: {nodes.points[bad].tolist()}")
    try:
        labels = set(nodes.provenance)
    except TypeError:  # an unhashable label, so not a string
        labels = nodes.provenance
    for label in labels:
        if not isinstance(label, str) or _bad_label(label):
            raise ValueError(f"provenance must be a 0/1 bit string or '-', got {label!r}")
    return _blocks(nodes)


def _blocks(nodes: NodeSet):
    m, count, points = nodes.m, len(nodes), nodes.points
    bits = points.view(np.int64)
    line = ",".join(["%.17g"] * m) + ",%s\n"
    yield f"{m},{nodes.n},{count}\n"
    above = None  # the cell texts of the row above the block
    for start in range(0, count, NODE_BLOCK_ROWS):
        stop = min(start + NODE_BLOCK_ROWS, count)
        labels = nodes.provenance[start:stop]
        lo = max(start, 1)  # the first row of the file has no row above
        same = bits[lo:stop] == bits[lo - 1 : stop - 1]
        if not same.any():
            lines = [line % (*row, label) for row, label in zip(points[start:stop].tolist(), labels)]
            above = lines[-1].split(",")[:m]
            yield "".join(lines)
            continue
        fresh = np.ones((stop - start, m), bool)  # cells to format
        np.logical_not(same, out=fresh[lo - start :])
        values = points[start:stop][fresh].tolist()
        # row 0 holds the row above; each other cell takes the text of the
        # nearest fresh cell at or above it in its column
        texts = np.empty((stop - start + 1, m + 1), object)
        texts[0, :m] = above
        texts[1:, :m][fresh] = (",".join(["%.17g"] * len(values)) % tuple(values)).split(",")
        source = np.where(fresh, np.arange(1, stop - start + 1)[:, None], 0)
        np.maximum.accumulate(source, axis=0, out=source)
        texts[1:, :m] = texts[source, np.arange(m)]
        texts[1:, m] = labels
        above = texts[-1, :m].tolist()
        yield "\n".join(map(",".join, texts[1:].tolist())) + "\n"


def format_nodes(nodes: NodeSet) -> str:
    """The text of a node file.  It holds the blocks of node_blocks and
    their join, about twice the text, at once."""
    return "".join(node_blocks(nodes))


def write_nodes(nodes: NodeSet, path) -> None:
    """Write a node file block by block, holding one block of
    NODE_BLOCK_ROWS rows at a time, never the whole text.  A set that
    node_blocks refuses raises before the path is opened."""
    blocks = node_blocks(nodes)
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(blocks)


def _bad_label(label: str) -> bool:
    return label != "-" and (not label or bool(label.strip("01")))


def _header(head: str, at: int, source: str):
    """m, n and count of the header line head, which is line at."""
    header = head.split(",")
    if len(header) != 3:
        raise FileFormatError(f"{source}:{at}: header must be m,n,count, got {head!r}")
    try:
        m, n, count = (int(field) for field in header)
    except ValueError:
        raise FileFormatError(f"{source}:{at}: header fields must be integers, got {head!r}") from None
    if m < 1 or n < 0 or count < 1:
        raise FileFormatError(f"{source}:{at}: header values out of range: m={m} n={n} count={count}")
    return m, n, count


def parse_nodes(text: str, source: str = "<string>") -> NodeSet:
    """The NodeSet of a node file's text.

    A well-formed text is read in one lazy pass: np.loadtxt takes the rows
    from a generator that finds each in the text, so only the text, the
    points and the labels are held at once.  Well-formed means the header
    on line 1, then exactly count rows of m commas and a good label, every
    line ended by "\n" alone (the last may lack it), and every value one
    the array parser reads to a finite float.  Any other text (blank lines,
    other line breaks, \x1f, a wrong count, comma count or label, or a
    value such as 1_0 or inf) goes to the strict reader's row loop, which
    also holds a list of the text's lines, skips blank lines and raises
    FileFormatError naming the line of the first problem.
    """
    end = text.find("\n")
    head = text if end < 0 else text[:end]
    if not head.strip() or not text.isascii() or any(map(text.__contains__, _LOOSE_CHARS)):
        return _parse_strict(text, source)
    m, n, count = _header(head, 1, source)
    if end < 0 or text.count("\n", end + 1, len(text) - 1) != count - 1:
        return _parse_strict(text, source)
    labels = []

    def rows():  # the node rows, each followed by "\n" or the end of the text
        start, tail = end + 1, "\n"
        for _ in range(count):
            stop = text.find("\n", start)
            row = text[start:] if stop < 0 else text[start:stop]
            if row.count(",") != m:
                raise ValueError("a row the strict reader must read")
            if not row.endswith(tail):  # else the rows of one leaf share its label
                label = row[row.rfind(",") + 1 :].strip()
                tail = "," + label
            labels.append(label)
            yield row
            start = stop + 1

    try:
        points = np.loadtxt(rows(), delimiter=",", usecols=range(m), comments=None, ndmin=2, max_rows=count)
    except ValueError:
        return _parse_strict(text, source)
    if any(map(_bad_label, set(labels))) or not np.isfinite(points).all():
        return _parse_strict(text, source)
    return NodeSet(points, labels, m, n)


def _parse_strict(text: str, source: str) -> NodeSet:
    """The NodeSet of any node file's text, read one row at a time, or the
    FileFormatError that names the line of its first problem.  Rows of one
    leaf share one label string, as assembled node sets do."""
    lines = text.splitlines()
    # the numbers of the lines in use: blank lines are skipped, but counted
    numbers = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))) + 1
    if not numbers.size:
        raise FileFormatError(f"{source}:1: empty node file, expected header m,n,count")
    at, head = int(numbers[0]), lines[numbers[0] - 1]
    m, n, count = _header(head, at, source)
    if len(numbers) - 1 != count:
        raise FileFormatError(
            f"{source}: header announces {count} nodes but file has {len(numbers) - 1} rows"
        )
    points = np.empty((count, m))
    labels, label = [], None
    for row, i in enumerate(numbers[1:]):
        fields = lines[i - 1].split(",")
        if len(fields) != m + 1:
            raise FileFormatError(
                f"{source}:{i}: expected {m} coordinates plus a provenance label, "
                f"got {len(fields)} fields"
            )
        try:
            points[row] = [float(field) for field in fields[:m]]
        except ValueError as bad:
            raise FileFormatError(f"{source}:{i}: bad coordinate: {bad}") from None
        if fields[m].strip() != label:
            label = fields[m].strip()
            if _bad_label(label):
                raise FileFormatError(
                    f"{source}:{i}: provenance must be a 0/1 bit string or '-', got {label!r}"
                )
        labels.append(label)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise FileFormatError(f"{source}:{numbers[bad[0] + 1]}: coordinates must be finite")
    return NodeSet(points, labels, m, n)


def _read_ascii(path) -> str:
    """The text of an ASCII file; a byte outside ASCII is a FileFormatError
    naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as bad:
        # the lines before the byte, and its own
        line = len((data[:bad.start].decode("ascii") + "?").splitlines())
        raise FileFormatError(
            f"{path}:{line}: byte 0x{data[bad.start]:02x} at offset {bad.start} is not ASCII"
        ) from None
    # the newlines of a text-mode read, so JSON errors count lines as before
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_nodes(path) -> NodeSet:
    return parse_nodes(_read_ascii(path), source=str(path))


def format_polynomial(poly: MultiPoly) -> str:
    if not np.isfinite(poly.coeffs).all():
        bad = np.flatnonzero(~np.isfinite(poly.coeffs))[0]
        raise ValueError(f"coefficient {bad} is not finite: {poly.coeffs[bad]}")
    doc = {
        "m": poly.m,
        "n": poly.n,
        "ordering": ORDERING_TAG,
        "coefficients": [float(c) for c in poly.coeffs],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_polynomial(poly: MultiPoly, path) -> None:
    text = format_polynomial(poly)  # refuses a non-finite coefficient before the path is opened
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)


def parse_polynomial(text: str, source: str = "<string>") -> MultiPoly:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as bad:
        raise FileFormatError(f"{source}:{bad.lineno}: not valid JSON: {bad.msg}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{source}: top level must be an object")
    for field in ("m", "n", "ordering", "coefficients"):
        if field not in doc:
            raise FileFormatError(f"{source}: missing field '{field}'")
    m, n = doc["m"], doc["n"]
    # JSON true and false load as bool, which is an int subclass
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (m, n)) or m < 1 or n < 0:
        raise FileFormatError(f"{source}: field 'm'/'n' must be integers with m>=1, n>=0")
    if doc["ordering"] != ORDERING_TAG:
        raise FileFormatError(
            f"{source}: field 'ordering' must be {ORDERING_TAG!r}, got {doc['ordering']!r}"
        )
    coeffs = doc["coefficients"]
    expected = count_total(m, n)
    if not isinstance(coeffs, list) or len(coeffs) != expected:
        raise FileFormatError(
            f"{source}: field 'coefficients' must be a list of {expected} reals "
            f"for m={m}, n={n}"
        )
    values = []
    for i, c in enumerate(coeffs):
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise FileFormatError(f"{source}: field 'coefficients' holds a non-numeric entry")
        try:
            values.append(float(c))
        except OverflowError:  # an integer beyond the float range
            values.append(math.inf)
        if not math.isfinite(values[-1]):
            raise FileFormatError(f"{source}: coefficient {i} is not finite: {values[-1]}")
    return MultiPoly(m, n, values)


def read_polynomial(path) -> MultiPoly:
    return parse_polynomial(_read_ascii(path), source=str(path))
