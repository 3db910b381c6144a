"""Every top-level function and class, and every import, of `src/hirank`
has a reader.

A name that a module defines at its top level must be referred to
somewhere in the package source (a name, an attribute or an import; its
own `def` or `class` line does not count). A public name (no leading
underscore) may instead be exported in `hirank.__all__` or mentioned in
README.md; a private helper (`_name`, not a dunder) has no such way out.
Otherwise no caller, user or document needs it, and it is dead code.

A name that a module imports must be read in that module. `from __future__`
imports are exempt, and so are the names `hirank/__init__` re-exports in
`__all__`.
"""

import ast
import re
import shutil
from pathlib import Path

import hirank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hirank"


def parse_package(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    trees = parse_package(package)
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
    for module, tree in trees.items():
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


def unused_imports(package: Path = PACKAGE) -> list[str]:
    unused = []
    for module, tree in parse_package(package).items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = hirank.__all__ if module == "__init__" else []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name not in exported:
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


def test_every_import_is_read():
    assert unused_imports() == []


def test_an_unread_import_is_found(tmp_path):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / "metrics.py").read_text(encoding="utf-8")
    (package / "metrics.py").write_text(
        source.replace("import numpy as np\n", "import numpy as np\nimport os.path\n", 1),
        encoding="utf-8",
    )
    assert unused_imports(package) == ["metrics.os"]


def test_an_unexported_import_in_init_is_found(tmp_path):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "__init__.py").open("a", encoding="utf-8") as handle:
        handle.write("\nimport os\n")
    assert unused_imports(package) == ["__init__.os"]
