"""Print the size of src/planesync: lines and code lines per module, and the total.

A code line holds a token that is not a comment, NL, NEWLINE, INDENT,
DEDENT or the end marker, and that lies outside every module, class and
function docstring.  So blank lines, comment lines and docstrings are lines
but not code lines.

    python tests/src_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "planesync"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def size(text: str) -> tuple[int, int]:
    """The lines and the code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.add((first.lineno, first.col_offset))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main() -> None:
    rows = [(path.name, *size(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")


if __name__ == "__main__":
    main()
