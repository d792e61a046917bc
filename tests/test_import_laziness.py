"""Import-cost guard for the entry points a spawned job runner pays for.

``import repro.solve`` and ``import repro.serve.runner`` must not register
the built-in problems or the canned experiments (those load on the first
registry lookup) nor import networkx (not a dependency), and the number of
``repro`` modules each entry point loads must not grow: a runner process
(or the fork server it runs as) pays this import.  The runner needs neither
asyncio nor the HTTP front end, which ``repro.serve`` loads only on access.
Measured in a fresh interpreter, since the test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: Entry point -> most ``repro`` modules (the package included) it may load.
MODULE_BUDGET = {"repro.solve": 41, "repro.serve.runner": 45, "repro.problems": 9}

#: Modules that no entry point may import: the first two load on a registry
#: lookup, networkx is not a dependency of the package.
LAZY = ("repro.problems.builtins", "repro.core.experiments", "networkx")

#: Modules a job runner must not load: the service's event loop and HTTP app.
RUNNER_FREE_OF = ("asyncio", "repro.serve.app", "repro.serve.http")


def _loaded_modules(entry_point: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import json, sys, %s; print(json.dumps(sorted(sys.modules)))" % entry_point
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("entry_point", sorted(MODULE_BUDGET))
def test_entry_point_stays_lazy_and_within_budget(entry_point):
    loaded = _loaded_modules(entry_point)
    assert not set(LAZY) & set(loaded)
    own = [name for name in loaded if name == "repro" or name.startswith("repro.")]
    assert len(own) <= MODULE_BUDGET[entry_point], own


def test_runner_loads_neither_asyncio_nor_the_http_app():
    loaded = _loaded_modules("repro.serve.runner")
    assert not set(RUNNER_FREE_OF) & set(loaded)
