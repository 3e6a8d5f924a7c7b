"""Line counts of the bfdesign sources: total, code, docstring, comment and blank.

Usage, from anywhere:

    python3 tools/loc.py [DIR]

DIR defaults to ``src/bfdesign`` of this checkout.  Every ``*.py`` file in
it gets one row, then a total row.  Each line falls in exactly one class,
the first that fits:

- docstring: inside a module, class or function docstring, blank lines of
  the docstring included;
- code: holds a token other than a comment, such as a statement, a bracket
  or a non-docstring string, even with a comment after it;
- comment: holds a comment and nothing else;
- blank: the rest.

So total = code + docstring + comment + blank, and total is ``wc -l``.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

CLASSES = ("total", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Counts of each class in `CLASSES` for the text of one module."""
    total = len(source.splitlines())
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    counts = {
        "total": total,
        "code": len(code),
        "docstring": len(docstring),
        "comment": len(comment),
    }
    counts["blank"] = total - counts["code"] - counts["docstring"] - counts["comment"]
    return counts


def table(directory: str) -> str:
    """One row per ``*.py`` file of directory, sorted by name, then a total row."""
    rows = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                rows.append((name, count(handle.read())))
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in CLASSES}))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'file':<{width}}" + "".join(f"{c:>10}" for c in CLASSES)]
    lines += [f"{name:<{width}}" + "".join(f"{r[c]:>10}" for c in CLASSES) for name, r in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=os.path.join(here, "src", "bfdesign"))
    args = parser.parse_args(argv)
    print(table(args.directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
