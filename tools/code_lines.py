"""Count the code lines of the ratsqrt package.

A code line carries at least one token that is not a comment, so blank
lines, comment lines and the lines of module, class and function
docstrings are not counted; the lines a multi-line expression or string
literal spans all count.  Prints one line per module of ``src/ratsqrt``
and the total:

    python3 tools/code_lines.py [package directory]

With ``--rev REV`` each line holds the module's count at the git revision
REV, its count now and the difference.  The counts at REV are read from
``git show REV:<module>``, so no second checkout is needed; a module
missing on one side counts 0 there:

    python3 tools/code_lines.py --rev HEAD~1 [package directory]
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ratsqrt"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(source):
    """The number of code lines in a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def code_lines(path):
    """The number of code lines in one Python source file."""
    with tokenize.open(path) as fh:
        return count(fh.read())


def counts_at(rev, package):
    """{module name: code lines} of the package at the git revision rev."""
    def git(*args):
        return subprocess.run(["git", "-C", str(package), *args],
                              capture_output=True, text=True, check=True).stdout

    names = git("ls-tree", "--name-only", rev, "--", ".").split()
    return {n: count(git("show", f"{rev}:./{n}"))
            for n in names if n.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--rev", help="print each module's change since REV")
    args = parser.parse_args(argv)
    now = {p.name: code_lines(p) for p in sorted(args.package.glob("*.py"))}
    if args.rev is None:
        for name, n in now.items():
            print(f"{name:20} {n:6}")
        print(f"{'total':20} {sum(now.values()):6}")
        return 0
    then = counts_at(args.rev, args.package)
    for name in sorted(now.keys() | then.keys()):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{name:20} {a:6} {b:6} {b - a:+6}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{'total':20} {a:6} {b:6} {b - a:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
