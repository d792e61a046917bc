"""The ``serve-mixed`` workload: a closed loop of science jobs on ``repro serve``.

An in-process :class:`repro.serve.ServeThread` runs two workers over a shared
``--cache-dir``.  Two client threads each submit a small NSGA-II job, follow
its SSE stream to the end, fetch ``/result``, then submit the same spec again;
the next fresh spec switches problem (``photosynthesis`` / ``geobacter``), so
both kinds are always in flight.  Fresh specs take the disk-cache write path,
repeats the read path.

Every job is checked after the window: a fresh job's front must be equal to
an in-process ``solve()`` of the same spec (the service contract, cached =
uncached), and a repeat must be served wholly from the disk cache with the
same front.  A job that is refused, times out, ends in another state than
``done`` or fails its check counts as failed and is never timed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import tempfile
import threading
import time
from datetime import datetime
from pathlib import Path

import speed
from layers import layer_times

KINDS = ("photosynthesis", "geobacter")
JOB = {"algorithm": "nsga2", "generations": 10, "population": 16}
WORKERS = 2
CLIENTS = 2
#: A job whose connection stays silent this many seconds counts as timed out.
JOB_TIMEOUT_S = 60.0


def setup_command(data_dir: Path) -> list[str]:
    """Arguments of one set-up: ``repro serve`` until it announces its port."""
    return [
        "-m", "repro", "serve", "--port", "0", "--workers", str(WORKERS),
        "--data-dir", str(data_dir / "data"), "--cache-dir", str(data_dir / "cache"),
    ]


class _Specs:
    """Distinct fresh job specs drawn from the workload seed (thread-safe)."""

    def __init__(self, seed: int) -> None:
        self._next = random.Random(seed).randrange(2**30)
        self._lock = threading.Lock()

    def fresh(self, kind: str, telemetry: bool) -> dict:
        with self._lock:
            job_seed = self._next
            self._next += 1
        return dict(JOB, problem=kind, seed=job_seed, telemetry=telemetry)


def _run_job(client, spec: dict, repeat: bool) -> dict:
    """Submit one spec, follow its stream, fetch its result."""
    from repro.serve.client import ServiceError

    job = {"spec": spec, "repeat": repeat, "ok": False}
    start = time.perf_counter()
    job["wall_start"] = time.time()
    try:
        record = client.submit(**spec)
        job["submit_s"] = time.perf_counter() - start
        job["id"] = record["id"]
        state = None
        for event in client.stream(record["id"]):
            now = time.perf_counter() - start
            if event.get("type") == "generation":
                job.setdefault("first_event_s", now)
                job["last_event_s"] = now
            elif event.get("type") == "state":
                state = event.get("state")
        if state != "done":
            job["problem"] = "job %s ended %s" % (record["id"], state)
            return job
        job["front"] = client.result(record["id"])
    except (ServiceError, OSError) as error:  # refused, or timed out on the socket
        job["problem"] = "job %s: %r" % (job.get("id", "refused"), error)
        return job
    job["latency_s"] = time.perf_counter() - start
    job["ok"] = True
    return job


def _client_loop(port, index, specs, deadline, telemetry, jobs, lock) -> None:
    from repro.serve import ServeClient

    client = ServeClient(port=port, timeout=JOB_TIMEOUT_S)
    k = 0
    while time.perf_counter() < deadline:
        spec = specs.fresh(KINDS[(index + k) % len(KINDS)], telemetry)
        for repeat in (False, True):
            if time.perf_counter() >= deadline:
                break
            job = _run_job(client, spec, repeat)
            with lock:
                jobs.append(job)
        k += 1


def _window(port, specs, seconds, telemetry) -> tuple[list[dict], float]:
    """Run the closed loop for ``seconds``; returns jobs and the window's wall."""
    jobs: list[dict] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop, args=(port, index, specs, deadline, telemetry, jobs, lock)
        )
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs, time.perf_counter() - start


def _timestamp(text: str) -> float:
    return datetime.fromisoformat(text).timestamp()


def _read_job_dir(job: dict, jobs_dir: Path) -> None:
    """Attach the job's record, ledger and (when traced) trace spans."""
    job_dir = jobs_dir / job["id"]
    record = json.loads((job_dir / "job.json").read_text(encoding="utf-8"))
    job["queue_wait_s"] = _timestamp(record["started"]) - _timestamp(record["created"])
    job["startup_s"] = job["wall_start"] + job["first_event_s"] - _timestamp(record["started"])
    job["finish_s"] = _timestamp(record["finished"]) - (job["wall_start"] + job["last_event_s"])
    job["ledger"] = json.loads((job_dir / "ledger.json").read_text(encoding="utf-8"))
    trace = job_dir / "trace.jsonl"
    if job["spec"]["telemetry"] and trace.exists():
        lines = trace.read_text(encoding="utf-8").splitlines()
        job["spans"] = [json.loads(line) for line in lines if line.strip()]


def _check(jobs: list[dict], work_dir: Path) -> None:
    """Check every finished job; a failed check clears the job's ``ok`` flag."""
    from repro.core.artifacts import record_solve_run
    from repro.problems import build_problem
    from repro.solve import MaxGenerations, solve

    problems = {}
    fresh_fronts = {}
    for job in jobs:
        if not job["ok"] or job["repeat"]:
            continue
        spec = job["spec"]
        kind = spec["problem"]
        if kind not in problems:
            problems[kind] = build_problem(kind)
        result = solve(
            problems[kind],
            algorithm=spec["algorithm"],
            seed=spec["seed"],
            termination=MaxGenerations(spec["generations"]),
            population_size=spec["population"],
        )
        reference_dir = Path(tempfile.mkdtemp(dir=work_dir))
        record_solve_run(reference_dir, problems[kind], result, parameters={})
        reference = json.loads((reference_dir / "front.json").read_text(encoding="utf-8"))
        if job["front"] != reference:
            job["ok"] = False
            job["problem"] = "served front of job %s differs from solve()" % job["id"]
        fresh_fronts[(kind, spec["seed"])] = job["front"]
    for job in jobs:
        if not job["ok"] or not job["repeat"]:
            continue
        spec = job["spec"]
        if job["ledger"].get("disk_hit_rate") != 1.0:
            job["ok"] = False
            job["problem"] = "repeat job %s disk_hit_rate %r != 1" % (
                job["id"], job["ledger"].get("disk_hit_rate"))
        elif job["front"] != fresh_fronts.get((spec["problem"], spec["seed"]), job["front"]):
            job["ok"] = False
            job["problem"] = "repeat job %s front differs from the fresh job" % job["id"]


@contextlib.contextmanager
def _pythonpath(value: str | None):
    """Set (``None``: remove) ``PYTHONPATH`` for the runners spawned meanwhile."""
    saved = os.environ.get("PYTHONPATH")
    _set_environ("PYTHONPATH", value)
    try:
        yield
    finally:
        _set_environ("PYTHONPATH", saved)


def _set_environ(key: str, value: str | None) -> None:
    if value is None:
        os.environ.pop(key, None)
    else:
        os.environ[key] = value


def _warm_up(port: int, specs: _Specs) -> None:
    """Untimed: one job of each kind at once, so cold costs stay out of the window."""
    from repro.serve import ServeClient

    threads = [
        threading.Thread(
            target=_run_job,
            args=(ServeClient(port=port, timeout=JOB_TIMEOUT_S), specs.fresh(kind, False), False),
        )
        for kind in KINDS
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run(seed: int, seconds: float, traced: bool, work_dir: Path, pythonpath: str | None) -> dict:
    """Warm up, run the measured window(s) and check every job.

    ``pythonpath`` is the ``PYTHONPATH`` the runner subprocesses inherit
    (``None`` removes it).  Traced, the window is split: an untraced half,
    then a half whose jobs record telemetry, and the two give the overhead.
    """
    from repro.runtime.diskcache import DiskCache
    from repro.serve import ServeThread

    specs = _Specs(seed)
    with _pythonpath(pythonpath), ServeThread(
        str(work_dir / "data"), workers=WORKERS, cache_dir=str(work_dir / "cache")
    ) as app:
        _warm_up(app.port, specs)
        # Probed while no job runs: before and after the window.
        probes = speed.probe_cores(4 * speed.PROBES)
        if traced:
            plain, plain_wall = _window(app.port, specs, seconds / 2, telemetry=False)
            telemetry, telemetry_wall = _window(app.port, specs, seconds / 2, telemetry=True)
            jobs, wall = plain + telemetry, plain_wall + telemetry_wall
        else:
            jobs, wall = _window(app.port, specs, seconds, telemetry=False)
        probes += speed.probe_cores(4 * speed.PROBES)

    jobs_dir = work_dir / "data" / "jobs"
    for job in jobs:
        if job["ok"]:
            _read_job_dir(job, jobs_dir)
    _check(jobs, work_dir)
    ok = [job for job in jobs if job["ok"]]
    outcome = {
        "attempted": len(jobs),
        "failed": len(jobs) - len(ok),
        "problems": [job["problem"] for job in jobs if not job["ok"]],
        "walls": [job["latency_s"] for job in ok],
        "first_events": [job["first_event_s"] for job in ok],
        "window_s": wall,
        "speed": probes,
    }
    if traced:
        outcome.update(_layers(ok))
        traced_jobs = [job["latency_s"] for job in ok if job["spec"]["telemetry"]]
        plain_jobs = [job["latency_s"] for job in ok if not job["spec"]["telemetry"]]
        outcome["overhead_ratio"] = (
            statistics.median(traced_jobs) / statistics.median(plain_jobs) - 1.0
            if traced_jobs and plain_jobs
            else None
        )
        outcome["cache_entries"] = DiskCache(work_dir / "cache").stats()["entries"]
    return outcome


def _layers(ok: list[dict]) -> dict:
    """Per-phase medians, cache counters and runner-side layer times."""
    phases = {
        name: statistics.median(job[name] for job in ok) if ok else 0.0
        for name in ("submit_s", "queue_wait_s", "startup_s", "finish_s")
    }
    traced = [job for job in ok if "spans" in job]
    totals: dict[str, dict[str, float]] = {}
    solve_s = []
    for job in traced:
        for layer, values in layer_times(job["spans"], job["latency_s"]).items():
            into = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            into["calls"] += values["calls"]
            into["self_s"] += values["self_s"]
        solve_s += [span["duration"] for span in job["spans"] if span["name"] == "solve.run"]
    phases["solve_s"] = statistics.median(solve_s) if solve_s else 0.0
    disk_hits = sum(job["ledger"].get("total_disk_hits", 0) for job in ok)
    lookups = sum(
        phase.get("disk_hits", 0) + phase.get("disk_misses", 0)
        for job in ok
        for phase in job["ledger"].get("phases", {}).values()
    )
    rows = sum(
        phase.get("cache_hits", 0) + phase.get("cache_misses", 0)
        for job in traced
        for phase in job["ledger"].get("phases", {}).values()
    )
    memory_hits = sum(job["ledger"].get("total_cache_hits", 0) for job in traced)
    traced_disk_hits = sum(job["ledger"].get("total_disk_hits", 0) for job in traced)
    return {
        "layers": totals,
        "traced_wall_s": sum(job["latency_s"] for job in traced),
        "traced_units": len(traced),
        "serve": phases,
        "serve_jobs": len(ok),
        "counts": {
            "cache.disk_hits": disk_hits,
            "cache.disk_misses": lookups - disk_hits,
            "evaluation.rows": rows,
            "evaluation.cache_hits": memory_hits + traced_disk_hits,
        },
    }
