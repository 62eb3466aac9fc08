"""Count the lines of Python files: all lines, and lines of code alone.

    python3 scripts/count_lines.py src/dualavg

Code lines are the lines that hold a token other than a comment, leaving out
blank lines and the lines of docstrings (the string that opens a module, class
or function body).  Takes files or directories (searched for ``*.py``),
prints one line per file and a total line, and exits 0 whatever the counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one file's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories")
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    totals = [0, 0]
    for path in files:
        lines = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:6d} {lines[1]:6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total (all lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
