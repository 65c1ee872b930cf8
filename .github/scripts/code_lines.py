"""Count the code lines of every module of ``src/sdgflow``.

A code line holds a Python token other than a comment and is not part of
a docstring (of a module, class or function). Prints one line per module
and the total; it checks nothing.

Usage (from the repository root): python3 .github/scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "sdgflow"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(ROOT)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
