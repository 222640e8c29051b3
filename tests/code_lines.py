"""Lines and code lines of each module of ``src/msaconform``, and their
totals: the size figure that ROADMAP.md tracks.

A code line is a line that holds part of a statement. Blank lines,
comment lines and the lines of a docstring (a string that begins a
module, class or function body) are not code lines; a line of a
statement that spans lines is one, and so is each line of a string that
is not a docstring::

    python3 tests/code_lines.py             # the modules of src/msaconform
    python3 tests/code_lines.py some/dir    # the modules of another directory
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "msaconform"
# tokens that lay a source out and hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", type=Path, default=PACKAGE,
                        help="the directory whose *.py modules are counted "
                             "(default: src/msaconform)")
    args = parser.parse_args(argv)
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    all_lines = all_code = 0
    for path in sorted(args.directory.glob("*.py")):
        text = path.read_text("utf-8")
        lines, code = len(text.splitlines()), code_lines(text)
        print(f"{path.name:<20} {lines:>6} {code:>6}")
        all_lines, all_code = all_lines + lines, all_code + code
    print(f"{'total':<20} {all_lines:>6} {all_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
