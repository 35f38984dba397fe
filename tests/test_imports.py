"""Cold imports: a command line call loads only what its command runs, and
the package loads each public name from its home module on first use.

Each check runs in a fresh interpreter with src on PYTHONPATH, so that no
module another test imported is already in sys.modules.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# one cli.main call, then the kloosterlab and concurrent modules it left
_CALL = """
import contextlib, io, json, sys
from kloosterlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("kloosterlab", "concurrent"))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _fresh(source: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _loaded(*argv: str) -> set:
    doc = json.loads(_fresh(_CALL, *argv))
    assert doc["code"] == 0
    return set(doc["loaded"])


def test_a_sum_loads_only_its_own_layers():
    assert _loaded("sum", "1", "101", "1000") == {
        "kloosterlab", "kloosterlab.cli", "kloosterlab.errors", "kloosterlab.arith",
        "kloosterlab.accumulate", "kloosterlab.reports", "kloosterlab.expsums",
    }


@pytest.mark.parametrize("argv,absent", [
    (("avg-max", "64", "64"), {"bilinear", "counting", "vaughan"}),
    (("vaughan-check", "1", "7", "1000"), {"experiments", "counting", "parallel"}),
])
def test_a_command_leaves_other_modules_unloaded(argv, absent):
    loaded = _loaded(*argv)
    assert not loaded & {f"kloosterlab.{name}" for name in absent}
    assert "concurrent.futures" not in loaded


_SURFACE = """
import json, sys
import kloosterlab as kl
cold = sorted(m for m in sys.modules if m.startswith("kloosterlab."))
arith = kl.arith
space = {}
exec("from kloosterlab import *", space)
homes = {name: getattr(sys.modules[space[name].__module__], name) for name in kl.__all__}
try:
    kl.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "cold": cold,
    "arith": arith is sys.modules["kloosterlab.arith"],
    "prime_sum": kl.prime_sum is kl.expsums.prime_sum,
    "bound": sorted(name for name in kl.__all__ if name in space),
    "home": sorted(name for name in kl.__all__ if space[name] is homes[name]),
    "dir": sorted(set(kl.__all__) - set(dir(kl))),
    "missing": missing,
    "all": kl.__all__,
}))
"""


def test_the_package_loads_each_name_from_its_home_module():
    doc = json.loads(_fresh(_SURFACE))
    names = doc["all"]
    assert len(names) == len(set(names)) == 59
    # importing the package loads none of its modules
    assert doc["cold"] == []
    assert doc["arith"] is doc["prime_sum"] is True
    assert doc["bound"] == doc["home"] == sorted(names)
    assert doc["dir"] == []
    assert doc["missing"] == "module 'kloosterlab' has no attribute 'no_such_name'"
