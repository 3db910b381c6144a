"""Every public top-level function and class of `src/hirank` has a reader.

A public name (no leading underscore) that a module defines at its top
level must be referred to somewhere in the package source (a name, an
attribute or an import; its own `def` or `class` line does not count),
exported in `hirank.__all__`, or mentioned in README.md. Otherwise no
caller, user or document needs it, and it is dead code.
"""

import ast
import re
from pathlib import Path

import hirank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hirank"


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    referred: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.alias):
                referred.add(node.name)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in referred or name in hirank.__all__:
                continue
            if not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_has_a_reader():
    assert unused_definitions() == []
