"""Every name a test module imports is read in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_finds_unused_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import scanmix.core\n"
        "from pathlib import Path, PurePath as Pure\n"
        "from __future__ import annotations\n"
        "print(np.pi, scanmix.core, Path)\n"
    )
    assert unused_imports(source) == ["Pure", "os"]
