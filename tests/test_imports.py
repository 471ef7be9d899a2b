"""Every import in the package and in the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, as "line:name"."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "import os, os.path\nimport numpy as np\nfrom typing import Any, Callable\nnp.ones(Any)\n"
    assert unused_imports(source) == ["1:os", "3:Callable"]


def test_no_unused_imports():
    # The package's __init__ imports names to re-export them.
    files = [
        *(p for p in (ROOT / "src" / "secquery").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
    assert len(files) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{entry}"
        for path in sorted(files)
        for entry in unused_imports(path.read_text())
    ]
    assert unused == []
