"""Count the lines of the etsgd sources, per module and in total.

Usage, from the root of the repository:

    python3 tools/src_lines.py [DIR]

DIR defaults to src/etsgd.  Each line of a module falls in one column:
docstring and comment lines (a docstring of the module, a class or a
function, or a line holding only a comment), blank lines, and code lines
(every other line, the lines inside a multi-line string that is not a
docstring included).  "all" is the sum of the three.  Only the standard
library is used.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int, int, int]:
    """(all, code, docstring and comment, blank) line counts of one module's text."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = source.splitlines()
    blank = sum(1 for i, text in enumerate(lines, 1) if not text.strip() and i not in code)
    n_code = len(code - docs)
    return len(lines), n_code, len(lines) - n_code - blank, blank


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/etsgd")
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<16}{'all':>7}{'code':>7}{'doc+comment':>13}{'blank':>7}")
    for name, total, code, doc, blank in rows:
        print(f"{name:<16}{total:>7}{code:>7}{doc:>13}{blank:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
