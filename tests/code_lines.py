"""The code-line ledger of `src/xq`.

A code line is a line that holds a token other than a comment, where the
docstrings of modules, classes and functions do not count: blank lines,
comments and docstrings carry no code.  A token that spans lines, such as
a string, counts every line it spans, and so does each line of a
statement written over several lines.  `tests/golden/code_lines` holds the
count of `src/xq`, and `test_code_lines.py` fails when it differs.

    python3 tests/code_lines.py    # each module and the total

A change that raises the count says why in CHANGES.md; one that lowers it
lowers the committed number in the same diff.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xq")
LEDGER = os.path.join(ROOT, "tests", "golden", "code_lines")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring
    starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_source(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_package(package: str = PACKAGE) -> dict[str, int]:
    """Module path, relative to the package, -> code lines, for every .py
    file below the package, in sorted order."""
    counts = {}
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, package)] = count_source(fh.read())
    return counts


def difference(package: str = PACKAGE, ledger: str = LEDGER) -> str | None:
    """None when the package has the ledger's count of code lines, else a
    message with both counts."""
    with open(ledger, encoding="utf-8") as fh:
        want = int(fh.read())
    got = sum(count_package(package).values())
    if got == want:
        return None
    return (f"{package} has {got} code lines and {ledger} says {want}: write {got} "
            "there, and say in CHANGES.md why when the count rose")


def main() -> int:
    counts = count_package()
    for module, n in counts.items():
        print(f"{n:6d}  {module}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
