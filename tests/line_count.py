"""Count the code lines of Python modules.

A code line holds a token other than a comment: blank lines, comment lines
and the docstrings of modules, classes and functions do not count, so
deleting a docstring does not shrink the count.  A statement that spans
several lines counts each line that holds one of its tokens.

Usage: python tests/line_count.py PATH [PATH ...]

Each PATH is a module or a directory, whose `*.py` files are counted; the
script prints the code lines of each module, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def modules(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/line_count.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in modules(argv):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
