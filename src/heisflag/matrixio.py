"""Plain-text matrix files with exact rational entries.

Format: a header line holding the dimension n, then n lines of n
whitespace-separated rational literals, each "a" or "a/b" with b a positive
integer.  Parsing and printing round-trip exactly because entries are kept
in canonical lowest terms with positive denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Matrix

_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")
_DIMENSION = re.compile(r"^[0-9]+$")


class MatrixFormatError(ValueError):
    """The text does not follow the matrix file format."""


def parse_rational(token: str) -> Fraction:
    if not _RATIONAL.match(token):
        raise MatrixFormatError(f"not a rational literal: {token!r}")
    return Fraction(token)


def parse_matrix(text: str) -> Matrix:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    if not _DIMENSION.match(lines[0]):
        raise MatrixFormatError(f"header must be the dimension, got {lines[0]!r}")
    n = int(lines[0])
    if n < 1:
        raise MatrixFormatError("dimension must be positive")
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"expected {n} entries per row, got {len(tokens)}")
        rows.append([parse_rational(tok) for tok in tokens])
    return rows


def format_matrix(m: Matrix) -> str:
    n = len(m)
    lines = [str(n)]
    for row in m:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())
