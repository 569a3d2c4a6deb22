"""Code lines and AST nodes of the maxca package, per module and in total.

    python3 tools/code_lines.py [SRC]

SRC is the source tree (the directory that holds the `maxca` package);
it defaults to the src/ next to this script. A code line is a line of a
`maxca/*.py` module that holds a token of code: blank lines, comment
lines and the lines of docstrings (a string that is a statement of its
own) do not count. A statement that spans lines counts each of them.

Each line reads: code lines, AST nodes (every node `ast.walk` visits,
the module's own included), module name. How long a process takes to
compile a module from source grows with its node count, so the nodes
of the modules a command loads size its compile cost.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def ast_nodes(source: str) -> int:
    """The number of nodes in one module's AST."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [SRC]", file=sys.stderr)
        return 2
    package = os.path.join(argv[0] if argv else os.path.join(os.path.dirname(HERE), "src"), "maxca")
    if not os.path.isdir(package):
        print(f"code_lines.py: no maxca package under {os.path.dirname(package)}", file=sys.stderr)
        return 2
    total = nodes_total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                source = f.read()
            count, nodes = code_lines(source), ast_nodes(source)
            print(f"{count:6d} {nodes:7d}  {name}")
            total += count
            nodes_total += nodes
    print(f"{total:6d} {nodes_total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
