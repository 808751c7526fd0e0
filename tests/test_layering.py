"""Only ``poly.py`` sees ``MultiPoly``'s internals.

Every other module builds and reads polynomials through the public API:
the constructor, ``terms``, the ring operations and ``substitute``.  This
walks the source of every module in the package and fails on an import of
an underscore name from ``.poly`` or a read of an attribute named ``_terms``.
"""

import ast
from pathlib import Path

import gencheb

PACKAGE = Path(gencheb.__file__).parent


def _breaches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("poly", "gencheb.poly"):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
        elif isinstance(node, ast.Attribute) and node.attr == "_terms":
            found.append(f"line {node.lineno}: reads ._terms")
    return found


def test_only_poly_reaches_into_multipoly():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    breaches = {
        path.name: _breaches(ast.parse(path.read_text(), str(path)))
        for path in modules
        if path.name != "poly.py"
    }
    assert {name: found for name, found in breaches.items() if found} == {}


def test_the_walk_sees_a_breach():
    source = "from .poly import MultiPoly, _unchecked\nx = p._terms\n"
    assert _breaches(ast.parse(source)) == [
        "line 1: imports _unchecked",
        "line 2: reads ._terms",
    ]
