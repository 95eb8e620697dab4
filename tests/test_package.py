"""The package keeps only the API its own modules reach."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entdist"


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or looks up as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_is_used_in_the_package():
    """Each public top-level function and class of ``src/entdist`` is named
    by some module there; the package root's re-exports do not count."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set().union(*(_names_used(tree) for tree in trees.values()))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []
