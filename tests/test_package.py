"""The package's lazy surface: `import hirank` loads no submodule, and every
exported name and every submodule is imported when it is first read."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hirank

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(path.stem for path in (SRC / "hirank").glob("*.py") if path.stem != "__init__")

# after a bare `import hirank`: the hirank modules loaded, then each submodule
# read as `hirank.<module>` with the name its module object reports
BARE = """\
import json, sys
import hirank
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("hirank"))
print(json.dumps([loaded, {name: getattr(hirank, name).__name__ for name in sys.argv[1:]}]))
"""


def test_a_bare_import_loads_no_submodule_and_reads_each_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", BARE, *MODULES], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, names = json.loads(proc.stdout)
    assert loaded == ["hirank"]
    assert names == {name: f"hirank.{name}" for name in MODULES}


@pytest.mark.parametrize("name", hirank.__all__)
def test_every_exported_name_resolves_to_its_definition(name):
    value = getattr(hirank, name)
    assert getattr(sys.modules[value.__module__], name) is value


# names the README declares gone from the library; their oracles live in tests/conftest.py
REMOVED = ["rank_of", "h_pr_at_k", "h_ap_pr_oracle", "ScoredRanking.sorted_order"]


@pytest.mark.parametrize("name", REMOVED)
def test_a_removed_name_is_gone_from_the_library(name):
    from hirank import metrics
    owner, _, attr = name.rpartition(".")
    assert attr not in hirank.__all__
    assert not hasattr(hirank, attr)
    assert not hasattr(getattr(metrics, owner) if owner else metrics, attr)


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from hirank import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(hirank, name) for name in hirank.__all__}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as error:
        hirank.no_such_name
    assert str(error.value) == "module 'hirank' has no attribute 'no_such_name'"
    assert not hasattr(hirank, "cli_main")


def test_dir_lists_every_exported_name_and_submodule():
    listed = dir(hirank)
    assert listed == sorted(listed)
    assert set(hirank.__all__) | set(MODULES) <= set(listed)


def test_the_readme_names_every_exported_name_as_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the inline code spans, outside the fenced blocks
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)
    code = "\n".join(re.findall(r"`([^`]+)`", prose))
    missing = [name for name in hirank.__all__ if not re.search(rf"\b{name}\b", code)]
    assert missing == []
