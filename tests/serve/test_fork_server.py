"""Runner-process tests: the fork server's lifecycle and the spawn fallback.

Every served job runs in its own process: a child forked from one warm
fork server (the "zygote") where ``os.fork`` exists, a fresh
``python -m repro.serve.runner`` interpreter elsewhere.  These tests pin the
zygote's lifecycle — started on first use only, replaced after it dies,
gone with its children after shutdown — and that both ways of starting a
runner serve fronts byte-equal to an in-process ``solve()``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.artifacts import record_solve_run
from repro.problems import build_problem
from repro.serve import ServeClient, ServeThread
from repro.serve.jobs import JobSpec
from repro.serve.store import EVENTS_NAME, STDERR_NAME, JobStore
from repro.solve import MaxGenerations, solve

SRC = Path(__file__).resolve().parents[2] / "src"

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

#: ~0.24 s of forced sleep per generation: reliably still running when poked.
SLOW = {"problem": "zdt1?delay=0.02", "generations": 500, "population": 12,
        "telemetry": False}


def _spec(seed):
    return {"problem": "zdt1?n_var=6", "algorithm": "nsga2", "seed": seed,
            "generations": 5, "population": 12, "telemetry": False}


def _reference_front(spec, directory):
    problem = build_problem(spec["problem"])
    result = solve(problem, algorithm=spec["algorithm"], seed=spec["seed"],
                   termination=MaxGenerations(spec["generations"]),
                   population_size=spec["population"])
    directory.mkdir()
    record_solve_run(directory, problem, result, parameters={})
    return (directory / "front.json").read_text(encoding="utf-8")


def _served_front(data_dir, job_id):
    return (Path(data_dir) / "jobs" / job_id / "front.json").read_text(encoding="utf-8")


def _alive(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met within %.0fs" % timeout
        time.sleep(0.02)


def _zygote_pids(data_dir):
    """Pids of live ``--zygote`` processes serving ``data_dir``."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes().decode("utf-8", "replace")
        except OSError:
            continue
        parts = cmdline.split("\0")
        if "--zygote" in parts and str(data_dir) in parts and _alive(entry.name):
            pids.append(int(entry.name))
    return pids


def _running_pid(app, job_id):
    """Pid of the process running ``job_id``, once it has started."""
    _wait_until(lambda: getattr(app.coordinator.processes.get(job_id), "pid", None))
    return app.coordinator.processes[job_id].pid


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))


class TestRunnerEntryPoint:
    def test_usage_error_prints_only_the_usage_line(self):
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serve.runner"],
            capture_output=True, text=True, env=_env(),
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            "usage: python -m repro.serve.runner <job_dir> [--cache-dir DIR]"
        ]


@needs_fork
class TestZygoteProtocol:
    def test_signal_sent_right_after_the_fork_reaches_the_child(self, tmp_path):
        store = JobStore(tmp_path)
        records = [store.create(JobSpec(**dict(SLOW, generations=20, seed=seed)))
                   for seed in range(8)]
        with subprocess.Popen(
            [sys.executable, "-m", "repro.serve.runner", "--zygote", str(tmp_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(),
        ) as zygote:
            assert json.loads(zygote.stdout.readline())["event"] == "ready"
            # Every cancel right behind its fork, all in one write: each
            # signal lands while its child may still be starting.
            commands = []
            for record in records:
                commands.append({"op": "run", "job": record.id, "cache_dir": None,
                                 "job_dir": str(store.job_dir(record.id))})
                commands.append({"op": "signal", "job": record.id,
                                 "signal": int(signal.SIGTERM)})
            zygote.stdin.write("".join(json.dumps(c) + "\n" for c in commands).encode())
            zygote.stdin.flush()
            replies = [json.loads(zygote.stdout.readline()) for _ in range(2 * len(records))]
            zygote.stdin.close()
            code = zygote.wait(timeout=30)
        exits = {reply["job"]: reply["code"] for reply in replies if reply["event"] == "exit"}
        assert exits == {record.id: -signal.SIGTERM for record in records}
        assert code == 0


@needs_fork
class TestForkServerLifecycle:
    def test_service_without_workers_never_starts_a_zygote(self, tmp_path):
        with ServeThread(str(tmp_path), workers=0) as app:
            client = ServeClient(port=app.port, timeout=30)
            client.submit(**_spec(1))
            time.sleep(0.2)
            runner = client.stats()["runner"]
        assert runner == {"mode": "fork", "zygote_pid": None, "zygote_starts": 0,
                          "forks": 0}

    def test_killed_zygote_fails_its_job_and_the_next_job_gets_a_new_one(self, tmp_path):
        with ServeThread(str(tmp_path), workers=1) as app:
            client = ServeClient(port=app.port, timeout=60)
            slow = client.submit(**SLOW)
            child = _running_pid(app, slow["id"])
            job_dir = tmp_path / "jobs" / slow["id"]
            # The child opens stderr.log before it logs its first generation.
            events = job_dir / EVENTS_NAME
            _wait_until(lambda: events.is_file() and "generation" in events.read_text())
            # What the job printed before its zygote died (a warning, say)
            # must not hide why it ended.
            with open(job_dir / STDERR_NAME, "a") as stderr:
                stderr.write("RuntimeWarning: printed by the job\n")
            zygote = client.stats()["runner"]["zygote_pid"]
            os.kill(zygote, signal.SIGKILL)

            record = client.wait(slow["id"], timeout=30)
            assert record["state"] == "failed"
            assert record["error"].startswith("fork server (pid %d) exited" % zygote)
            assert record["error"].endswith("RuntimeWarning: printed by the job")
            _wait_until(lambda: not _alive(child), timeout=10)

            healthy = client.submit(**_spec(3))
            assert client.wait(healthy["id"], timeout=60)["state"] == "done"
            runner = client.stats()["runner"]
            assert runner["zygote_starts"] == 2
            assert runner["zygote_pid"] not in (None, zygote)

    def test_stop_leaves_neither_zygote_nor_job_children(self, tmp_path):
        app = ServeThread(str(tmp_path), workers=2).start()
        try:
            client = ServeClient(port=app.port, timeout=60)
            jobs = [client.submit(**dict(SLOW, seed=seed)) for seed in (1, 2)]
            children = [_running_pid(app, job["id"]) for job in jobs]
            zygote = client.stats()["runner"]["zygote_pid"]
            assert all(_alive(pid) for pid in children + [zygote])
        finally:
            app.stop()
        assert not any(_alive(pid) for pid in children + [zygote])

    def test_stop_while_the_zygote_starts_leaves_no_zygote(self, tmp_path):
        app = ServeThread(str(tmp_path), workers=1).start()
        try:
            client = ServeClient(port=app.port, timeout=60)
            client.submit(**_spec(1))
            _wait_until(lambda: _zygote_pids(tmp_path))
            starting = _zygote_pids(tmp_path)
            # Still importing: the coordinator has not taken it over yet.
            assert client.stats()["runner"]["zygote_pid"] is None
        finally:
            app.stop()
        assert not any(_alive(pid) for pid in starting)
        assert _zygote_pids(tmp_path) == []

    def test_concurrent_forked_jobs_match_direct_solve(self, tmp_path):
        data_dir = tmp_path / "data"
        specs = [_spec(5), _spec(6)]
        with ServeThread(str(data_dir), workers=2) as app:
            client = ServeClient(port=app.port, timeout=60)
            jobs = [client.submit(**spec) for spec in specs]
            for job in jobs:
                assert client.wait(job["id"], timeout=60)["state"] == "done"
            runner = client.stats()["runner"]
        assert (runner["zygote_starts"], runner["forks"]) == (1, 2)
        for index, (spec, job) in enumerate(zip(specs, jobs)):
            reference = _reference_front(spec, tmp_path / ("reference-%d" % index))
            assert _served_front(data_dir, job["id"]) == reference

    def test_failed_job_keeps_its_stderr_as_an_artifact(self, tmp_path):
        with ServeThread(str(tmp_path), workers=1) as app:
            client = ServeClient(port=app.port, timeout=60)
            crash = client.submit(problem="zdt1?fail_after=5", generations=50,
                                  population=12, telemetry=False)
            record = client.wait(crash["id"], timeout=60)
        stderr = (tmp_path / "jobs" / crash["id"] / STDERR_NAME).read_text(encoding="utf-8")
        assert record["state"] == "failed"
        assert "deliberate failure injected" in stderr
        assert record["error"] == stderr[-4000:].strip()


class TestSpawnFallback:
    def test_spawned_runners_serve_the_same_front(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        with monkeypatch.context() as patch:
            if hasattr(os, "fork"):
                patch.delattr(os, "fork")
            app = ServeThread(str(data_dir), workers=1)
        spec = _spec(8)
        with app:
            client = ServeClient(port=app.port, timeout=60)
            job = client.submit(**spec)
            assert client.wait(job["id"], timeout=60)["state"] == "done"
            crash = client.submit(problem="zdt1?fail_after=5", generations=50,
                                  population=12, telemetry=False)
            failed = client.wait(crash["id"], timeout=60)
            runner = client.stats()["runner"]
        assert runner == {"mode": "spawn", "zygote_pid": None, "zygote_starts": 0,
                          "forks": 0}
        assert _served_front(data_dir, job["id"]) == _reference_front(
            spec, tmp_path / "reference"
        )
        assert failed["state"] == "failed"
        assert "deliberate failure injected" in failed["error"]
        assert (data_dir / "jobs" / crash["id"] / STDERR_NAME).is_file()
