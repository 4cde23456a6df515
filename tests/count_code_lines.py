"""Count the lines of ``src/diffinfo``, the figures that ROADMAP.md tracks.

For each module, and in total, it prints two counts: every line of the file,
as ``wc -l`` counts them, and its code lines, the non-blank lines that hold
more than a comment or a docstring.  A docstring is the string that opens a
module, class or function body (found by ``ast``); a comment is a
``tokenize`` comment token.  A line with code and a trailing comment is a
code line.

Run it from the repository root::

    python tests/count_code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diffinfo"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """The line numbers spanned by the docstrings of a module's tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The lines and the code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
