"""Every public name of the package is read by program code.

Parses ``src/``, ``demos/`` and ``bench/`` with ``ast``.  Each name in a
``src/`` module's ``__all__``, and each public method (properties included)
of a ``src/`` class, must be read somewhere in those trees: as a loaded
``Name``, a loaded ``Attribute`` or an imported alias.  A name that only the
tests read is test scaffolding and belongs in the tests.  Attributes are
matched by name alone, so a method counts as read once any object's
attribute of that name is.
"""

from __future__ import annotations

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_TREES = ("src", "demos", "bench")


def _parsed(tree: str) -> list[tuple[Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted((_REPO / tree).rglob("*.py"))
    ]


def _read_names(modules) -> set[str]:
    names = set()
    for _, module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _exported(module: ast.Module) -> list[str]:
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _public_methods(module: ast.Module) -> list[tuple[str, str]]:
    return [
        (cls.name, item.name)
        for cls in ast.walk(module)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def test_every_public_name_is_read_outside_the_tests():
    src = _parsed("src")
    read = _read_names(src + [m for tree in _TREES[1:] for m in _parsed(tree)])
    unread = []
    for path, module in src:
        where = path.relative_to(_REPO)
        unread += [f"{where}: {name}" for name in _exported(module) if name not in read]
        unread += [
            f"{where}: {cls}.{method}"
            for cls, method in _public_methods(module)
            if method not in read
        ]
    assert src
    assert not unread, "public names that no program code reads:\n" + "\n".join(unread)
