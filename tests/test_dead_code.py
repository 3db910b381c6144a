"""Every top-level function and class of `src/hirank` has a reader.

A name that a module defines at its top level must be referred to
somewhere in the package source (a name, an attribute or an import; its
own `def` or `class` line does not count). A public name (no leading
underscore) may instead be exported in `hirank.__all__` or mentioned in
README.md; a private helper (`_name`, not a dunder) has no such way out.
Otherwise no caller, user or document needs it, and it is dead code.
"""

import ast
import re
import shutil
from pathlib import Path

import hirank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hirank"


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
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
            if name in referred or name.startswith("__"):
                continue
            if name.startswith("_") or (
                name not in hirank.__all__ and not re.search(rf"\b{re.escape(name)}\b", readme)
            ):
                unused.append(f"{module}.{name}")
    return unused


def is_private(dotted: str) -> bool:
    return dotted.split(".")[1].startswith("_")


def test_every_public_definition_has_a_reader():
    assert [name for name in unused_definitions() if not is_private(name)] == []


def test_every_private_helper_has_a_reader():
    assert [name for name in unused_definitions() if is_private(name)] == []


def test_an_orphaned_private_helper_is_found(tmp_path):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "metrics.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\ndef _orphan():\n    return _CHUNK\n\n\nclass __Dunder:\n    pass\n")
    assert unused_definitions(package) == ["metrics._orphan"]
