"""Source hygiene: no unused imports in ``src/`` or ``tests/``.

An AST scan in place of pyflakes' F401 check.  An import is used when its
bound name occurs as a name anywhere in the module or is listed in
``__all__``; an import whose line carries ``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import in ``source`` that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, bound in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_unused_imports():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import sys\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,\n"
        ")\n"
        "from numpy import array\n"
        "__all__ = ['array']\n"
        "print(sys.argv, loads, escape)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "dumps"), (7, "compile")]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text())]
    assert found == []
