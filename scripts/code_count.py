#!/usr/bin/env python3
"""Print the code count of the Python files under a directory.

The code count is the number of lines that carry a token, summed over every
*.py file under the directory: blank lines, comment lines and docstrings
(the string that opens a module, class or function body) do not count, and
a line counts once however many tokens it holds.  A token that spans lines,
such as a multi-line string that is not a docstring, counts every line it
spans.  It measures how much code a change adds or removes:

    python3 scripts/code_count.py src
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    """The first line of each docstring in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.add(first.lineno)
    return lines


def code_lines(source: str) -> int:
    """The code count of one file's source text."""
    docstrings = _docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_count.py DIRECTORY", file=sys.stderr)
        return 1
    paths = sorted(Path(argv[0]).rglob("*.py"))
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
