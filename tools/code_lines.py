"""Count the code lines of the bourgen package.

A code line is a physical line that holds a Python token other than a
comment, a docstring or a blank line; the docstrings of modules, classes
and functions are found with ``ast``, and the tokens with ``tokenize``.
A statement or string that spans several lines counts each of them.

Run from the repository root:

    python tools/code_lines.py [directory]

It prints each module's count and the total, for ``src/bourgen`` by
default.  Only the standard library is used.
"""
import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of every docstring of the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = _docstring_lines(ast.parse(source, filename=str(path)))
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/bourgen")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
