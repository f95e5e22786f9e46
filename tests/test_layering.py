"""Import hygiene of the package: no module imports another module's
private names, and every imported name is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relhyp"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield (f"{path.name}:{node.lineno}: "
                           f"from .{node.module} import {alias.name}")


def test_no_private_name_imported_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield f"{path.name}:{node.lineno}: {name}"


def test_every_imported_name_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert found == []
