"""Import-cost guard for the entry points a spawned job runner pays for.

``import repro.solve`` and ``import repro.serve.runner`` must not register
the built-in problems or the canned experiments (those load on the first
registry lookup), and the number of ``repro`` modules each entry point loads
must not grow: every job of ``repro serve`` spawns a runner process that
pays this import.  Measured in a fresh interpreter, since the test process
has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: Entry point -> most ``repro`` modules (the package included) it may load.
MODULE_BUDGET = {"repro.solve": 43, "repro.serve.runner": 51, "repro.problems": 10}

#: Modules that only a registry lookup may import.
LAZY = ("repro.problems.builtins", "repro.core.experiments")


def _loaded_modules(entry_point: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys, %s; print(json.dumps(sorted(name for name in sys.modules "
        "if name == 'repro' or name.startswith('repro.'))))" % entry_point
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("entry_point", sorted(MODULE_BUDGET))
def test_entry_point_stays_lazy_and_within_budget(entry_point):
    loaded = _loaded_modules(entry_point)
    assert not set(LAZY) & set(loaded)
    assert len(loaded) <= MODULE_BUDGET[entry_point], loaded
