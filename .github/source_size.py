"""Print the size measures of ROADMAP.md for one copy of the package.

Non-blank, non-comment, non-docstring lines per module and in total;
then the CLI's options (without -h and positionals), per subcommand and
in total; then the API size, the names in multicolor.__all__.

Usage: python .github/source_size.py PACKAGE_DIR

PACKAGE_DIR is a multicolor package directory, such as src/multicolor;
its parent directory goes first on sys.path, so the CLI and __all__ are
read from that copy.  Running it on two checkouts gives a before/after.
"""

import argparse
import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

package = Path(sys.argv[1]).resolve()
total = 0
for path in sorted(package.glob("*.py")):
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    count = len(code - docstrings)
    total += count
    print(f"{count:6d}  {path.name}")
print(f"{total:6d}  total")

sys.path.insert(0, str(package.parent))
from multicolor.cli import build_parser  # noqa: E402

(sub,) = (a for a in build_parser()._actions
          if isinstance(a, argparse._SubParsersAction))
options = 0
for name, parser in sub.choices.items():
    count = sum(1 for a in parser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction))
    options += count
    print(f"{count:6d}  {name} options")
print(f"{options:6d}  options total")

import multicolor  # noqa: E402

print(f"{len(multicolor.__all__):6d}  names in multicolor.__all__")
