"""Count the lines and code lines of each file under ``src/shifttree/``.

A code line holds a token other than a comment or a newline and is not part
of a docstring (a module, class or function body's leading string literal,
found with ``ast``).  Blank lines, comment lines and docstring lines are not
code.  Run from anywhere:

    python tools/src_lines.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one file's ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(source))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent.parent / "src" / "shifttree"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total_lines:6d} {total_code:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
