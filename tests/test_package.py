"""The package's lazy surface: `import hirank` loads no submodule, and every
exported name and every submodule is imported when it is first read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hirank

SRC = Path(__file__).resolve().parents[1] / "src"
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
