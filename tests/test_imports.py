"""Every imported name in the package and its tests is used, and every
function parameter in the package is read (stdlib `ast` only).

Exempt: `from __future__` imports, star imports, the re-exports of
`__init__.py` files, and `self`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/avgrl/*.py"))
SCANNED = PACKAGE + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import and never read as a name."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def unread_parameters(source: str) -> list[tuple[int, str]]:
    """(line, name) for each parameter of a function or lambda that its body
    never reads as a name (nested functions count as the body); `self` exempt."""
    unread: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)}
            unread += [(p.lineno, p.arg) for p in params
                       if p.arg != "self" and p.arg not in read]
    return sorted(unread)


def test_scanner_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "def f():\n"
        "    from math import pi\n"
        "    return np.zeros(1), dumps, os.sep\n"
    )
    assert unused_imports(source) == [(4, "loads"), (6, "pi")]


def test_no_unused_imports():
    assert len(SCANNED) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_parameter_scanner_flags_only_unread_parameters():
    source = (
        "class C:\n"
        "    def m(self, a, b=1, *rest, c, **kw):\n"
        "        def inner(d):\n"
        "            return a + c\n"
        "        return inner, kw\n"
        "f = lambda x, y: x\n"
    )
    assert unread_parameters(source) == [(2, "b"), (2, "rest"), (3, "d"), (6, "y")]


def test_no_unread_parameters():
    assert len(PACKAGE) > 5
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for line, name in unread_parameters(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
