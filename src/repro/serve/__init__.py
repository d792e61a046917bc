"""repro.serve — the optimization service: durable jobs over HTTP + SSE.

A stdlib-only asyncio service that runs :func:`repro.solve.solve` jobs
submitted over HTTP, with a durable on-disk queue, live progress streaming
and restart recovery:

* :class:`~repro.serve.jobs.JobSpec` / :class:`~repro.serve.jobs.JobRecord`
  — the submit payload and the per-job state machine (``queued → running →
  checkpointed → done/failed/cancelled``);
* :class:`~repro.serve.store.JobStore` — one directory per job,
  ``job.json`` written atomically, recovery by rescanning the tree;
* :class:`~repro.serve.coordinator.Coordinator` — bounded worker pool
  executing each job in its own runner process (forked from a warm
  :mod:`~repro.serve.zygote`) and fanning its event log out to SSE
  subscribers;
* :class:`~repro.serve.http.HttpServer` — the dependency-free HTTP/1.1
  front end (``POST /jobs``, ``GET /jobs/{id}/events`` as SSE,
  ``/result``, ``/cancel``, ``/healthz``, ``/stats``);
* :class:`~repro.serve.app.ServeApp` / :class:`~repro.serve.app.ServeThread`
  / :func:`~repro.serve.app.run_app` — assembly and lifecycles (CLI,
  in-process tests);
* :class:`~repro.serve.client.ServeClient` — the matching stdlib client
  (submit / stream / result / cancel / wait).

Start a server (CLI) and drive it from Python::

    repro serve --port 8765 --workers 2 --data-dir serve-data

    from repro.serve import ServeClient
    client = ServeClient(port=8765)
    job = client.submit(problem="zdt1", algorithm="nsga2", generations=20)
    for event in client.stream(job["id"]):
        print(event)
    front = client.result(job["id"])

See ``docs/serving.md`` for the endpoint reference, the state machine and
the recovery semantics.

The names below load on first access (PEP 562), so ``python -m
repro.serve.runner`` and the fork server import neither asyncio nor the HTTP
front end.
"""

import importlib
from typing import Any

#: Public name -> the submodule defining it.
_EXPORTS = {
    "ServeApp": "repro.serve.app",
    "ServeThread": "repro.serve.app",
    "run_app": "repro.serve.app",
    "ServeClient": "repro.serve.client",
    "ServiceError": "repro.serve.client",
    "Coordinator": "repro.serve.coordinator",
    "JobChannel": "repro.serve.coordinator",
    "HttpServer": "repro.serve.http",
    "QUEUED": "repro.serve.jobs",
    "RUNNING": "repro.serve.jobs",
    "CHECKPOINTED": "repro.serve.jobs",
    "DONE": "repro.serve.jobs",
    "FAILED": "repro.serve.jobs",
    "CANCELLED": "repro.serve.jobs",
    "JOB_STATES": "repro.serve.jobs",
    "TERMINAL_STATES": "repro.serve.jobs",
    "InvalidTransitionError": "repro.serve.jobs",
    "JobNotFinishedError": "repro.serve.jobs",
    "UnknownJobError": "repro.serve.jobs",
    "JobRecord": "repro.serve.jobs",
    "JobSpec": "repro.serve.jobs",
    "EventLogObserver": "repro.serve.runner",
    "run_job": "repro.serve.runner",
    "JobStore": "repro.serve.store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import the submodule defining ``name`` on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Module attributes plus the lazily loaded public names."""
    return sorted(set(globals()) | set(__all__))
