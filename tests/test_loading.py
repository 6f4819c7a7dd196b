"""What a call loads: `import avgmix` loads no submodule, each public
name loads its own submodule on first access, and the `compute` and
`analyze` subcommands and `verify --check stochastic|integrality` run
without numpy, the float oracle `avgmix.numeric` or the scheme and
discrete stacks.  Each check runs in a fresh interpreter, so nothing
another test imported can hide a load."""

import json
import os
import subprocess
import sys

import pytest

import avgmix

SRC = os.path.dirname(os.path.dirname(avgmix.__file__))
WATCHED = ("numpy", "avgmix.discrete", "avgmix.numeric", "avgmix.schemes")

# the avgmix submodules and numpy that are loaded at this point
LOADED = """
def loaded():
    return sorted(
        m for m in sys.modules if m.startswith("avgmix.") or m == "numpy"
    )
"""


def _python(script, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + LOADED + script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_not_numpy():
    assert _python("import avgmix\nprint(json.dumps(loaded()))") == []


CLI_SCRIPT = """
import contextlib, io
import avgmix.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = avgmix.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, loaded()]))
"""


def _unitary_file(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps({"entries": [["3/5", "4/5"], ["-4/5", "3/5"]]}))
    return str(path)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compute", "--family", "path:6"], []),
        (["analyze", "--family", "cycle:9", "--pair", "0,1"], []),
        (["verify", "--family", "path:6", "--check", "stochastic"], []),
        (["verify", "--family", "path:6", "--check", "integrality"], []),
        # the psd check is the float route
        (["verify", "--family", "path:6"], ["avgmix.numeric", "numpy"]),
        (
            ["scheme", "--q", "13", "--d", "2"],
            ["avgmix.numeric", "avgmix.schemes", "numpy"],
        ),
        (["discrete", "--unitary-file", None], ["avgmix.discrete", "numpy"]),
    ],
)
def test_a_subcommand_loads_only_its_own_stack(tmp_path, argv, expected):
    argv = [_unitary_file(tmp_path) if a is None else a for a in argv]
    code, loaded = _python(CLI_SCRIPT, json.dumps(argv))
    assert code == 0
    assert [m for m in loaded if m in WATCHED] == expected


def test_every_public_name_is_its_submodules_object():
    script = """
import avgmix

out = {}
for name in avgmix.__all__:
    obj = getattr(avgmix, name)
    home = obj.__module__
    out[name] = [
        home.startswith("avgmix."),
        getattr(sys.modules[home], name) is obj,
        vars(avgmix).get(name) is obj,
    ]
print(json.dumps(out))
"""
    found = _python(script)
    assert sorted(found) == sorted(avgmix.__all__)
    assert {name: [True] * 3 for name in found} == found


def test_star_import_and_dir_list_every_public_name():
    script = """
import avgmix

before = dir(avgmix)
namespace = {}
exec("from avgmix import *", namespace)
bound = sorted(k for k in namespace if k != "__builtins__")
try:
    avgmix.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "bound": bound,
    "dir": before,
    "error": error,
    "schemes": avgmix.schemes is sys.modules["avgmix.schemes"],
    "cli": avgmix.cli is sys.modules["avgmix.cli"],
    "version": avgmix.__version__,
}))
"""
    found = _python(script)
    assert len(avgmix.__all__) == 47
    assert found["bound"] == sorted(avgmix.__all__)
    assert set(avgmix.__all__) <= set(found["dir"])
    assert found["dir"] == sorted(found["dir"])
    assert found["error"] == "module 'avgmix' has no attribute 'no_such_name'"
    assert found["schemes"] and found["cli"]
    assert found["version"] == "0.1.0"
