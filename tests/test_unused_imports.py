"""Every name that a module of ``src/evcoint`` or ``tests`` imports is read
somewhere in that module, unless its import line says ``# noqa: F401``
(a re-export, or a name that perfbench's tracer patches)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "evcoint").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of every import whose bound name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if any("noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "math"), (3, "dumps")]
