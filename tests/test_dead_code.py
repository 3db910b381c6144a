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

A name that a module imports must be read from that import: loaded in the
scope that imports it, or in a scope nested in it that does not bind the name
itself, or named in an annotation. A local of the same name reads only
itself. `from __future__` imports are exempt, and so are the names
`hirank/__init__` re-exports in `__all__`.
"""

import ast
import re
import shutil
import symtable
from pathlib import Path
from typing import Iterator

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


def free_loads(table: symtable.SymbolTable) -> set[str]:
    """The names that a scope, or a scope nested in it, loads but does not bind."""
    nested = set().union(*map(free_loads, table.get_children()))
    if table.get_type() != "class":  # a class body's names are not visible to its methods
        nested -= {s.get_name() for s in table.get_symbols() if s.is_local()}
    return nested | {s.get_name() for s in table.get_symbols()
                     if s.is_referenced() and not s.is_local()}


def unread_imports(table: symtable.SymbolTable) -> Iterator[str]:
    """The names each scope imports that neither it nor a scope nested in it
    loads. A scope that binds the name itself reads its own binding."""
    nested = set() if table.get_type() == "class" else set().union(
        *map(free_loads, table.get_children()))
    for s in table.get_symbols():
        if s.is_imported() and not s.is_referenced() and s.get_name() not in nested:
            yield s.get_name()
    for child in table.get_children():
        yield from unread_imports(child)


def unused_imports(package: Path = PACKAGE) -> list[str]:
    unused = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        # an annotation is never evaluated (PEP 563), so the symbol table
        # does not see the names in it
        annotations = [a for node in ast.walk(tree) for a in (
            [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else []) if a]
        read = {n.id for a in annotations for n in ast.walk(a) if isinstance(n, ast.Name)}
        read |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "__future__"
                 for alias in node.names}
        if path.stem == "__init__":
            read |= set(hirank.__all__)
        unused += [f"{path.stem}.{name}"
                   for name in unread_imports(symtable.symtable(source, path.name, "exec"))
                   if name not in read]
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


@pytest.mark.parametrize("planted, unused", [
    # a local of the same name shadows the import: it reads no module name
    ("import os\n\ndef _f(rows):\n    for os in rows:\n        yield os\n", ["metrics.os"]),
    ("import os\n\ndef _f(rows):\n    return [os for os in rows]\n", ["metrics.os"]),
    ("def _f():\n    import os\n\n    def g(os):\n        return os\n    return g\n",
     ["metrics.os"]),
    # a nested scope that does not bind the name reads the import
    ("import os\n\ndef _f():\n    def g():\n        return os.sep\n    return g\n", []),
    ("def _f():\n    import os\n    return lambda: os.sep\n", []),
    ("import os\n\ndef _f():\n    global os\n    os = os.sep\n", []),
    # an annotation is never evaluated, but it names the import
    ("import os\n\ndef _f(rows: os.PathLike):\n    return rows\n", []),
])
def test_an_import_read_only_by_a_shadowing_local_is_found(tmp_path, planted, unused):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "metrics.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\n" + planted)
    assert unused_imports(package) == unused


def test_an_unexported_import_in_init_is_found(tmp_path):
    package = tmp_path / "hirank"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "__init__.py").open("a", encoding="utf-8") as handle:
        handle.write("\nimport os\n")
    assert unused_imports(package) == ["__init__.os"]
