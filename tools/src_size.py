"""Print the size of the package source: lines per module and exported names.

Usage:
    python3 tools/src_size.py
    python3 tools/src_size.py --against ../parent

For every module of ``src/mpb_lab`` next to this script, and in total,
the script prints one line ``module total code docstring comment``:

- ``total``: physical lines of the file;
- ``docstring``: lines spanned by module, class and function docstrings
  (found with ``ast``);
- ``code``: the other lines that carry a token of the program (found
  with ``tokenize``; a string spanning lines counts on each of them);
- ``comment``: lines that hold a comment and nothing else.

Blank lines are in ``total`` only. A last line ``__all__ N`` gives the
number of names the package exports, read from the ``__all__`` literal of
``src/mpb_lab/__init__.py`` without importing the package. With
``--against DIR`` the same block follows for the checkout at DIR, under a
``# DIR`` line, after a ``# this checkout`` one.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
COLUMNS = ("total", "code", "docstring", "comment")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes
    and its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The total, code, docstring and comment lines of one module's text."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docs
    return {"total": len(text.splitlines()), "code": len(code),
            "docstring": len(docs), "comment": len(comments - code - docs)}


def exported(package: Path) -> int:
    """len(__all__) of the package's __init__.py, read from its literal."""
    tree = ast.parse((package / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return len(ast.literal_eval(node.value))
    raise ValueError(f"{package}: no __all__ literal")


def report(root: Path) -> list[str]:
    """The lines printed for the checkout at root."""
    package = root / "src" / "mpb_lab"
    totals = dict.fromkeys(COLUMNS, 0)
    lines = [f"module {' '.join(COLUMNS)}"]
    for path in sorted(package.glob("*.py")):
        counts = count(path.read_text())
        for key in COLUMNS:
            totals[key] += counts[key]
        lines.append(f"{path.stem} {' '.join(str(counts[k]) for k in COLUMNS)}")
    lines.append(f"total {' '.join(str(totals[k]) for k in COLUMNS)}")
    lines.append(f"__all__ {exported(package)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout to count as well")
    args = parser.parse_args(argv)
    if args.against is not None and not (args.against / "src" / "mpb_lab").is_dir():
        parser.error(f"--against {args.against}: no src/mpb_lab there")
    if args.against is None:
        print("\n".join(report(ROOT)))
    else:
        print("\n".join(["# this checkout", *report(ROOT),
                         f"# {args.against}", *report(args.against)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
