"""Every private name the package defines is read somewhere in the package.

A private module-level function, class or constant, or a private method,
that no package code reads outside its own definition is dead: a call site
went away and left it behind. Reads are matched by name (a bare name or an
attribute), so the guard is loose where two modules share a private name,
and a read from the tests does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scanmix"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """(node, name) of each module-level function, class and assigned
    name in ``tree``, and of each method of its module-level classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(item, item.name) for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node, name.id) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return found


def orphans(sources):
    """The private definitions in ``sources`` (module name -> code) that no
    code outside their own definition reads, as (module, line, name)."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    found = []
    for module, tree in trees.items():
        for node, name in _definitions(tree):
            if not _private(name):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if all(id(read) in inside for read in reads.get(name, [])):
                found.append((module, node.lineno, name))
    return sorted(found)


def test_no_orphaned_private_code():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5, PACKAGE
    assert orphans({path.stem: path.read_text(encoding="utf-8") for path in modules}) == []


def test_orphan_guard_bites():
    sources = {
        "a": (
            "_USED, _LEFT = 1, 2\n"
            "_ALONE: int = 3\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Box:\n"
            "    def __init__(self):\n"
            "        self._size = 0\n"
            "    def _grow(self):\n"
            "        return self._size + 1\n"
            "    def _shrink(self):\n"
            "        return 0\n"
            "class _Lonely:\n"
            "    pass\n"
        ),
        "b": (
            "from .a import _helper, _Box\n"
            "def public():\n"
            "    return _helper(), _Box()._grow()\n"
        ),
    }
    assert orphans(sources) == [
        ("a", 1, "_LEFT"), ("a", 2, "_ALONE"), ("a", 5, "_recursive"), ("a", 12, "_shrink"),
        ("a", 14, "_Lonely"),
    ]
