"""Line counts of every module under src/, one line per module and a total:
its `wc -l`, then its code, docstring, comment-only and blank lines. Run it
from a checkout:

    python tests/line_counts.py [SRC_DIR]

A docstring line is any line of a module's, class's or function's docstring,
blank lines inside it included. A comment-only line holds nothing but a
comment. A blank line is empty or white space outside a docstring. Every
other line is code. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import pathlib
import sys

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def counts(path: pathlib.Path) -> dict:
    source = path.read_text()
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    result = dict.fromkeys(COLUMNS, 0)
    result["lines"] = len(lines)
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if number in docstring:
            result["docstring"] += 1
        elif not text:
            result["blank"] += 1
        elif text.startswith("#"):
            result["comment"] += 1
        else:
            result["code"] += 1
    return result


def main() -> None:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent / "src")
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':28s}" + "".join(f"{name:>10s}" for name in COLUMNS))
    for path in sorted(root.rglob("*.py")):
        row = counts(path)
        for name in COLUMNS:
            total[name] += row[name]
        print(f"{str(path.relative_to(root)):28s}" + "".join(f"{row[n]:10d}" for n in COLUMNS))
    print(f"{'total':28s}" + "".join(f"{total[n]:10d}" for n in COLUMNS))


if __name__ == "__main__":
    main()
