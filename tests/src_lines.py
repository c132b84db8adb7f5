"""Line counts of ``src/``: all lines, and code lines.

A code line is one that is not blank, not a comment and not inside a
docstring (the string that opens a module, class or function). Run as
``python tests/src_lines.py``; it prints the two totals over every ``.py``
file under ``src/``.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings and comments not counted."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip and tok.type != tokenize.ENDMARKER:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    sources = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py"))]
    print(f"src/ lines: {sum(len(s.splitlines()) for s in sources)}")
    print(f"src/ code lines: {sum(code_lines(s) for s in sources)}")


if __name__ == "__main__":
    main()
