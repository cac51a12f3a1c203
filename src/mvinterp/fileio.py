"""Plain-text formats for node sets and polynomial coefficient files.

Node files: a header line "m,n,count", then one row per node holding the
m coordinates as decimals with 17 significant digits followed by the
provenance bit string of the leaf that produced the node ("-" for
problems solved without a tree).

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
    "format_nodes",
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


def format_nodes(nodes: NodeSet) -> str:
    line = ",".join(["%.17g"] * nodes.m) + ",%s"
    lines = [f"{nodes.m},{nodes.n},{len(nodes)}"]
    for row, label in zip(nodes.points, nodes.provenance):
        lines.append(line % (*row.tolist(), label))
    lines.append("")  # ends the last row, without a second copy of the text
    return "\n".join(lines)


def write_nodes(nodes: NodeSet, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_nodes(nodes))


def parse_nodes(text: str, source: str = "<string>") -> NodeSet:
    lines = text.splitlines()
    # the numbers of the lines in use: blank lines are skipped, but counted
    numbers = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))) + 1
    if not numbers.size:
        raise FileFormatError(f"{source}:1: empty node file, expected header m,n,count")
    at, head = numbers[0], lines[numbers[0] - 1]
    header = head.split(",")
    if len(header) != 3:
        raise FileFormatError(f"{source}:{at}: header must be m,n,count, got {head!r}")
    try:
        m, n, count = (int(field) for field in header)
    except ValueError:
        raise FileFormatError(f"{source}:{at}: header fields must be integers, got {head!r}") from None
    if m < 1 or n < 0 or count < 1:
        raise FileFormatError(f"{source}:{at}: header values out of range: m={m} n={n} count={count}")
    if len(numbers) - 1 != count:
        raise FileFormatError(
            f"{source}: header announces {count} nodes but file has {len(numbers) - 1} rows"
        )
    points = np.empty((count, m))
    labels = []
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
        label = fields[m].strip()
        if label != "-" and (not label or set(label) - {"0", "1"}):
            raise FileFormatError(
                f"{source}:{i}: provenance must be a 0/1 bit string or '-', got {label!r}"
            )
        labels.append(label)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise FileFormatError(f"{source}:{numbers[bad[0] + 1]}: coordinates must be finite")
    return NodeSet(points, labels, m, n)


def read_nodes(path) -> NodeSet:
    with open(path, "r", encoding="ascii") as handle:
        return parse_nodes(handle.read(), source=str(path))


def format_polynomial(poly: MultiPoly) -> str:
    doc = {
        "m": poly.m,
        "n": poly.n,
        "ordering": ORDERING_TAG,
        "coefficients": [float(c) for c in poly.coeffs],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_polynomial(poly: MultiPoly, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_polynomial(poly))


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
    with open(path, "r", encoding="ascii") as handle:
        return parse_polynomial(handle.read(), source=str(path))
