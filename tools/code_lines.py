"""Count the code lines and docstring lines of a Python package.

A code line holds a token of a statement: it is not blank, not only a
comment and not part of a docstring (the string that opens a module,
class or function body). A docstring line is a line that such a string
spans. Only the standard library's ``ast`` and ``tokenize`` are used.

Usage: ``python3 tools/code_lines.py [DIRECTORY]`` (default ``src/sentdep``)
prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one Python file."""
    with path.open("rb") as stream:
        tokens = list(tokenize.tokenize(stream.readline))
    docs = docstring_lines(ast.parse(path.read_bytes(), str(path)))
    code: set[int] = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/sentdep")
    total_code = total_docs = 0
    print(f"{'module':<32} {'code':>6} {'docstring':>9}")
    for path in sorted(root.rglob("*.py")):
        code, docs = count(path)
        total_code += code
        total_docs += docs
        print(f"{str(path.relative_to(root)):<32} {code:>6} {docs:>9}")
    print(f"{'total':<32} {total_code:>6} {total_docs:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
