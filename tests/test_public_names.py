"""No public name exists for the tests alone.

Every name in a module's literal `__all__` must be referenced in the
package's source outside its own definition and its `__all__` entry, or be
used by tests/test_acceptance.py, whose calls fix the package's contract. A
reference is an identifier in the code: a name, an attribute or an imported
name, matched by spelling; docstrings and comments do not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

import lockqual

SRC = Path(lockqual.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _identifiers(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name, node.lineno))
    return found


def _public_names(tree: ast.Module) -> dict[str, range]:
    """Each name of the module's literal __all__ -> the lines of its top-level definition."""
    spans: dict[str, range] = {}
    exported: list[str] = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names = [getattr(node, "name", None)] + [t.id for t in targets if isinstance(t, ast.Name)]
        for name in filter(None, names):
            spans[name] = range(node.lineno, node.end_lineno + 1)
        if "__all__" in names and isinstance(node.value, ast.List):
            exported = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return {name: spans.get(name, range(0)) for name in exported}


def unreferenced(src: Path, acceptance: Path) -> list[str]:
    """module.name for each public name that nothing but its own definition refers to."""
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(src.glob("*.py"))}
    refs = {module: _identifiers(tree) for module, tree in trees.items()}
    used = {name for name, _ in _identifiers(ast.parse(acceptance.read_text("utf-8")))}
    missing = []
    for module, tree in trees.items():
        for name, own in _public_names(tree).items():
            if name in used:
                continue
            if not any(
                ident == name and not (where == module and line in own)
                for where, found in refs.items()
                for ident, line in found
            ):
                missing.append(f"{module}.{name}")
    return missing


def test_every_public_name_is_used_by_the_package_or_the_acceptance_suite():
    assert unreferenced(SRC, ACCEPTANCE) == []
