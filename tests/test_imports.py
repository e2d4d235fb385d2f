"""Every imported name in the package and its tests is used (stdlib `ast` only).

Exempt: `from __future__` imports, star imports, and the re-exports of
`__init__.py` files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(ROOT.glob("src/avgrl/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
