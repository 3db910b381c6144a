"""Every top-level function and class, and every import, of `src/hirank`
has a reader.

A name that a module defines at its top level must be referred to
somewhere in the package source (a name, an attribute or an import; its
own `def` or `class` line does not count). A public name (no leading
underscore) may instead be exported in `hirank.__all__` or mentioned in
README.md; a private helper (`_name`, not a dunder) has no such way out.
Otherwise no caller, user or document needs it, and it is dead code.

A method, property or annotated field of a class must likewise be named
somewhere in the package source (dunders are exempt; a field's own
declaration does not count, a keyword argument does), or be mentioned as
code in README.md or in the benchmark harness (`perfbench/*.py`): as
`` `name` ``, `.name` or `name(`, so a word of prose keeps no member.

A name that a module imports must be read in that module. `from __future__`
imports are exempt, and so are the names `hirank/__init__` re-exports in
`__all__`.
"""

import ast
import re
import shutil
from pathlib import Path

import pytest

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


def mentioned_as_code(name: str, docs: str) -> bool:
    name = re.escape(name)
    return re.search(rf"`{name}`|\.{name}\b|\b{name}\(", docs) is not None


def unused_members(package: Path = PACKAGE) -> list[str]:
    trees = parse_package(package)
    # the targets of annotated class fields, which declare a name, not read it
    fields = {stmt.target for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
    named: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node not in fields:
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.keyword) and node.arg:
                named.add(node.arg)
    docs = "\n".join(path.read_text(encoding="utf-8")
                     for path in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))])
    unused = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if name.startswith("__") or name in named or mentioned_as_code(name, docs):
                    continue
                unused.append(f"{module}.{cls.name}.{name}")
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


def test_every_class_member_has_a_reader():
    assert unused_members() == []


@pytest.mark.parametrize("docs, kept", [
    ("the `feature` row", True),
    ("reads ds.feature for each id", True),
    ("feature(id) returns a row", True),
    ("the feature space", False),
    ("`features`, ds.features, features(x)", False),
])
def test_only_a_mention_as_code_keeps_a_member(docs, kept):
    assert mentioned_as_code("feature", docs) == kept


def test_an_orphaned_class_member_is_found(tmp_path):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / "trainer.py").read_text(encoding="utf-8")
    planted = (
        "class TableModel:\n"
        "    orphan_field: int = 0\n\n"
        "    def all_embeddings(self, features):\n        return self.table.copy()\n\n"
        "    def __repr__(self):\n        return 'TableModel'\n\n"
    )
    (package / "trainer.py").write_text(source.replace("class TableModel:\n", planted, 1),
                                        encoding="utf-8")
    assert unused_members(package) == [
        "trainer.TableModel.orphan_field", "trainer.TableModel.all_embeddings",
    ]


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
