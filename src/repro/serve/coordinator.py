"""The coordinator: bounded worker pool, live event fan-out, recovery.

One :class:`Coordinator` owns the whole service state:

* the **durable queue** — an :class:`asyncio.Queue` of job ids mirroring the
  ``queued`` records in the :class:`~repro.serve.store.JobStore`; on startup
  :meth:`Coordinator.start` replays :meth:`JobStore.recover`, so jobs
  interrupted by a server kill re-enter the queue and resume from their
  latest checkpoint;
* a pool of ``workers`` **worker tasks**, each draining the queue and
  executing one job at a time in its own runner process (crash isolation,
  real cancellation, GIL-free parallelism).  The process is a child of the
  :class:`ForkServer` — one warm ``repro.serve.runner --zygote`` process
  started when a worker first needs it — or, where ``os.fork`` does not
  exist, a fresh ``python -m repro.serve.runner`` interpreter;
* one :class:`JobChannel` per observed job — the bridge between the
  runner's ``events.jsonl`` and the SSE endpoint.  A tail task polls the
  file while the job runs, updates the record's progress counters, flips
  ``running → checkpointed`` on the first checkpoint, and publishes each
  event to every subscriber queue.

The coordinator is the *only* writer of ``job.json`` while the server is
alive (the runner only appends events and writes artifacts), so record
updates never race across processes.

Example
-------
Run a coordinator manually inside an event loop::

    from repro.serve import Coordinator, JobSpec, JobStore

    async def demo(tmp_path):
        coordinator = Coordinator(JobStore(tmp_path), workers=2)
        await coordinator.start()
        record = await coordinator.submit(JobSpec(problem="zdt1", generations=4))
        await coordinator.wait(record.id)
        await coordinator.stop()
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any

from repro.serve.jobs import (
    CANCELLED,
    CHECKPOINTED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    JobNotFinishedError,
    JobRecord,
    JobSpec,
)
from repro.serve.store import STDERR_NAME, JobStore

__all__ = ["Coordinator", "ForkServer", "JobChannel", "EVENT_POLL_INTERVAL"]

#: Seconds between polls of a running job's ``events.jsonl``.
EVENT_POLL_INTERVAL = 0.05

#: Seconds the fork server may take to wind down before it is killed.
_ZYGOTE_EXIT_TIMEOUT = 10.0

#: Longest stderr tail kept as a failed job's error detail.
_STDERR_TAIL = 4000


class JobChannel:
    """Fan-out of one job's event stream to any number of subscribers.

    Holds the replayable ``history`` (everything already read from the
    job's event log) plus one :class:`asyncio.Queue` per live subscriber.
    ``None`` on a subscriber queue means end-of-stream.

    Example
    -------
    >>> import asyncio
    >>> async def demo():
    ...     channel = JobChannel()
    ...     channel.publish({"type": "generation", "generation": 1})
    ...     history, queue = channel.subscribe()
    ...     return history[0]["generation"]
    >>> asyncio.run(demo())
    1
    """

    def __init__(self, history: "list[dict] | None" = None) -> None:
        self.history: list[dict] = list(history or ())
        #: Count of *file* events already published — the tail's cursor into
        #: ``events.jsonl``.  Kept separately because the history also holds
        #: synthesized ``state`` events that never touch the file.
        self.consumed = len(self.history)
        self.subscribers: list[asyncio.Queue] = []
        self.closed = False

    def subscribe(self) -> tuple[list[dict], asyncio.Queue]:
        """Snapshot the history and register a live queue for what follows."""
        queue: asyncio.Queue = asyncio.Queue()
        history = list(self.history)
        if self.closed:
            queue.put_nowait(None)
        else:
            self.subscribers.append(queue)
        return history, queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach one subscriber queue (client disconnected)."""
        if queue in self.subscribers:
            self.subscribers.remove(queue)

    def publish(self, event: dict) -> None:
        """Append to history and push to every live subscriber."""
        self.history.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def close(self) -> None:
        """Signal end-of-stream to every subscriber (job reached a terminal state)."""
        if self.closed:
            return
        self.closed = True
        for queue in self.subscribers:
            queue.put_nowait(None)
        self.subscribers = []


class ForkedRunner:
    """One job's child of the :class:`ForkServer`, shaped like a subprocess.

    Offers what the coordinator uses of :class:`asyncio.subprocess.Process`
    — ``pid``, ``returncode``, ``terminate()``, ``wait()`` — plus
    ``detail``: why the job ended without an exit status of its own (the
    fork server died or could not fork), ``None`` otherwise.
    """

    def __init__(self, server: "ForkServer", job_id: str) -> None:
        self.job_id = job_id
        self.pid: "int | None" = None
        self.returncode: "int | None" = None
        self.detail: "str | None" = None
        self._server = server
        self._started = asyncio.Event()
        self._exited = asyncio.Event()

    def terminate(self) -> None:
        """SIGTERM the child (routed through the fork server)."""
        self._server.signal(self.job_id, signal.SIGTERM)

    async def wait(self) -> int:
        """Wait for the child's exit status."""
        await self._exited.wait()
        return self.returncode

    def _start(self, pid: int) -> None:
        self.pid = pid
        self._started.set()

    def _exit(self, code: int, detail: "str | None" = None) -> None:
        self.returncode = code
        self.detail = detail
        self._started.set()
        self._exited.set()


class ForkServer:
    """The coordinator's end of the fork server (:mod:`repro.serve.zygote`).

    The zygote process starts on the first :meth:`fork`, not before, so a
    service that runs no job never pays for it.  It is one
    ``python -m repro.serve.runner --zygote <data_dir>`` process that
    forks a child per job; this object sends it commands over its stdin and
    reads its replies off its stdout.  If the zygote dies, every job it was
    running ends with a non-zero code and a :attr:`ForkedRunner.detail`, and
    the next :meth:`fork` starts a new zygote.

    Example
    -------
    >>> import tempfile
    >>> server = ForkServer(tempfile.mkdtemp())
    >>> server.pid is None, server.starts, server.forks
    (True, 0, 0)
    """

    def __init__(self, data_dir: "str | Path") -> None:
        self.data_dir = str(data_dir)
        #: Zygote processes started so far, and children forked from them.
        self.starts = 0
        self.forks = 0
        self._process: "asyncio.subprocess.Process | None" = None
        self._reader: "asyncio.Task | None" = None
        self._runners: dict[str, ForkedRunner] = {}
        self._lock = asyncio.Lock()

    @property
    def pid(self) -> "int | None":
        """Pid of the live zygote, ``None`` while none runs."""
        return self._process.pid if self._process is not None else None

    async def fork(
        self, job_id: str, job_dir: "str | Path", cache_dir: "str | None"
    ) -> ForkedRunner:
        """Fork a child running ``run_job(job_dir, cache_dir)``."""
        async with self._lock:
            if self._process is None:
                await self._start()
            runner = ForkedRunner(self, job_id)
            self._runners[job_id] = runner
            self._send(
                {"op": "run", "job": job_id, "job_dir": str(job_dir), "cache_dir": cache_dir}
            )
        await runner._started.wait()
        if runner.pid is not None:
            self.forks += 1
        return runner

    def signal(self, job_id: str, signum: int) -> None:
        """Ask the zygote to signal one job's child, if it has not been reaped."""
        if self._process is not None:
            self._send({"op": "signal", "job": job_id, "signal": int(signum)})

    async def close(self) -> None:
        """Shut the zygote down and reap it.

        End of file on its control pipe makes the zygote terminate and reap
        every child it still has, then exit.
        """
        process = self._process
        if process is not None:
            process.stdin.close()
            try:
                await asyncio.wait_for(process.wait(), timeout=_ZYGOTE_EXIT_TIMEOUT)
            except asyncio.TimeoutError:  # pragma: no cover - a wedged zygote
                process.kill()
                await process.wait()
        if self._reader is not None:
            await self._reader
            self._reader = None

    async def _start(self) -> None:
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.serve.runner", "--zygote", self.data_dir,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        self.starts += 1
        try:
            ready = await process.stdout.readline()
        except BaseException:
            # Cancelled (the server stops) while the zygote imports: it is
            # not ours to close yet, so kill and reap it here.
            try:
                process.kill()
            except ProcessLookupError:
                pass
            await process.wait()
            raise
        if not ready:
            await process.wait()
            raise RuntimeError(
                "fork server exited with code %s before it was ready" % process.returncode
            )
        self._process = process
        self._reader = asyncio.ensure_future(self._read(process))

    def _send(self, message: dict) -> None:
        self._process.stdin.write((json.dumps(message) + "\n").encode("utf-8"))

    async def _read(self, process: "asyncio.subprocess.Process") -> None:
        """Dispatch the zygote's replies until it exits."""
        while True:
            line = await process.stdout.readline()
            if not line:
                break
            reply = json.loads(line)
            runner = self._runners.get(reply.get("job"))
            if runner is None:
                continue
            if reply["event"] == "started":
                runner._start(reply["pid"])
            elif reply["event"] == "exit":
                del self._runners[runner.job_id]
                runner._exit(reply["code"], reply.get("error"))
        # The zygote is gone: the next fork starts a new one, and every job
        # it still ran has lost its child (which kills itself).
        self._process = None
        lost, self._runners = self._runners, {}
        code = await process.wait()
        for runner in lost.values():
            runner._exit(
                -signal.SIGKILL,
                "fork server (pid %d) exited with code %s while the job ran"
                % (process.pid, code),
            )


class Coordinator:
    """Bounded asyncio worker pool over the durable job store.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.store.JobStore` holding every job.
    workers:
        Worker-task count; ``0`` accepts and persists jobs without running
        them (useful for tests and drain-only maintenance).
    cache_dir:
        Optional persistent evaluation-cache directory passed to every
        runner, so all workers share one content-addressed store across
        jobs and restarts.

    Example
    -------
    >>> import asyncio, tempfile
    >>> async def demo():
    ...     with tempfile.TemporaryDirectory() as base:
    ...         coordinator = Coordinator(JobStore(base), workers=0)
    ...         await coordinator.start()
    ...         record = await coordinator.submit(JobSpec(problem="zdt1"))
    ...         await coordinator.stop()
    ...         return record.state
    >>> asyncio.run(demo())
    'queued'
    """

    def __init__(
        self, store: JobStore, workers: int = 2, cache_dir: "str | None" = None
    ) -> None:
        self.store = store
        self.workers = int(workers)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.queue: asyncio.Queue = asyncio.Queue()
        self.channels: dict[str, JobChannel] = {}
        self.processes: dict[str, "asyncio.subprocess.Process | ForkedRunner"] = {}
        #: Where ``os.fork`` exists, jobs run as children of one warm process.
        self.fork_server = ForkServer(store.data_dir) if hasattr(os, "fork") else None
        self.records: dict[str, JobRecord] = {}
        self.busy = 0
        self.jobs_completed = 0
        self._worker_tasks: list[asyncio.Task] = []
        self._started_at: float | None = None
        self._recovered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the durable queue and launch the worker pool."""
        self._started_at = time.monotonic()
        runnable = self.store.recover()
        self._recovered = sum(1 for record in runnable if record.restarts > 0)
        for record in runnable:
            self.records[record.id] = record
            self.queue.put_nowait(record.id)
        for index in range(self.workers):
            task = asyncio.ensure_future(self._worker(index))
            self._worker_tasks.append(task)

    async def stop(self) -> None:
        """Terminate running jobs and wind down the worker pool.

        Interrupted jobs stay ``running``/``checkpointed`` on disk and are
        re-queued by the next :meth:`start` — intentionally identical to a
        hard kill, so graceful and crash shutdown share one recovery path.
        """
        for task in self._worker_tasks:
            task.cancel()
        # Forked children need no signal here: closing the fork server below
        # makes it terminate and reap every child it still has.
        if self.fork_server is None:
            for process in list(self.processes.values()):
                if process.returncode is None:
                    process.terminate()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self.fork_server is not None:
            await self.fork_server.close()
        for channel in self.channels.values():
            channel.close()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> JobRecord:
        """Validate a spec, persist a queued record and enqueue it."""
        spec.validate()
        record = self.store.create(spec)
        self.records[record.id] = record
        self.queue.put_nowait(record.id)
        return record

    def get(self, job_id: str) -> JobRecord:
        """The current record of one job (memory first, then disk)."""
        if job_id in self.records:
            return self.records[job_id]
        record = self.store.load(job_id)
        self.records[job_id] = record
        return record

    def list_jobs(self) -> list[JobRecord]:
        """Every known job record, in submission order."""
        records = {record.id: record for record in self.store.list_records()}
        records.update(self.records)
        return sorted(records.values(), key=lambda record: record.sequence)

    async def cancel(self, job_id: str) -> JobRecord:
        """Cancel one job: dequeue it if queued, terminate it if running.

        Terminal jobs are returned unchanged — cancel is idempotent and
        never un-finishes a job.
        """
        record = self.get(job_id)
        if record.is_terminal:
            return record
        record.cancel_requested = True
        if record.state == QUEUED:
            record.transition(CANCELLED)
            self.store.save(record)
            self._finish_channel(job_id, record)
            return record
        self.store.save(record)
        process = self.processes.get(job_id)
        if process is not None and process.returncode is None:
            process.terminate()
        return record

    def subscribe(self, job_id: str) -> tuple[list[dict], asyncio.Queue]:
        """History + live queue of one job's events (the SSE source).

        The replayed history starts with a synthesized ``state`` event so a
        late subscriber immediately knows where the job stands; terminal
        jobs get their full durable history and an immediate end-of-stream.
        """
        record = self.get(job_id)
        channel = self._channel(job_id)
        history, queue = channel.subscribe()
        history.insert(0, self._state_event(record))
        return history, queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        """Detach one subscriber from a job's channel."""
        channel = self.channels.get(job_id)
        if channel is not None:
            channel.unsubscribe(queue)

    async def wait(self, job_id: str, timeout: "float | None" = None) -> JobRecord:
        """Block until a job reaches a terminal state (tests and clients)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.get(job_id)
            if record.is_terminal:
                return record
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("job %s still %s after %.1fs" % (job_id, record.state, timeout))
            await asyncio.sleep(EVENT_POLL_INTERVAL)

    def stats(self) -> dict[str, Any]:
        """Pool and queue introspection served by ``GET /stats``."""
        counts = {state: 0 for state in JOB_STATES}
        for record in self.list_jobs():
            counts[record.state] = counts.get(record.state, 0) + 1
        return {
            "workers": self.workers,
            "workers_busy": self.busy,
            "queue_depth": self.queue.qsize(),
            "jobs": counts,
            "jobs_completed": self.jobs_completed,
            "jobs_recovered": self._recovered,
            "uptime": round(time.monotonic() - self._started_at, 3)
            if self._started_at is not None
            else 0.0,
            "runner": self._runner_stats(),
        }

    def _runner_stats(self) -> dict[str, Any]:
        server = self.fork_server
        if server is None:
            return {"mode": "spawn", "zygote_pid": None, "zygote_starts": 0, "forks": 0}
        return {
            "mode": "fork",
            "zygote_pid": server.pid,
            "zygote_starts": server.starts,
            "forks": server.forks,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _channel(self, job_id: str) -> JobChannel:
        channel = self.channels.get(job_id)
        if channel is None:
            channel = JobChannel(history=self.store.read_events(job_id))
            record = self.records.get(job_id)
            if record is not None and record.is_terminal:
                channel.close()
            self.channels[job_id] = channel
        return channel

    @staticmethod
    def _state_event(record: JobRecord) -> dict:
        return {
            "type": "state",
            "state": record.state,
            "generation": record.generation,
            "evaluations": record.evaluations,
            "error": record.error,
        }

    def _finish_channel(self, job_id: str, record: JobRecord) -> None:
        channel = self._channel(job_id)
        channel.publish(self._state_event(record))
        channel.close()

    async def _worker(self, index: int) -> None:
        """One pool slot: drain the queue forever, one job at a time."""
        while True:
            job_id = await self.queue.get()
            record = self.get(job_id)
            if record.state != QUEUED:
                continue  # cancelled while waiting in the queue
            self.busy += 1
            try:
                await self._run_job(record)
                self.jobs_completed += 1
            except asyncio.CancelledError:
                raise
            except Exception as error:  # pragma: no cover - defensive
                record.error = "coordinator error: %s" % error
                if not record.is_terminal:
                    record.transition(FAILED)
                self.store.save(record)
                self._finish_channel(record.id, record)
                self.jobs_completed += 1
            finally:
                self.busy -= 1

    async def _run_job(self, record: JobRecord) -> None:
        """Execute one job in a runner process, tailing its event log."""
        job_id = record.id
        restored = self.store.truncate_events(job_id)
        channel = self._channel(job_id)
        channel.history = self.store.read_events(job_id)
        channel.consumed = len(channel.history)
        record.transition(RUNNING)
        if restored is not None:
            record.generation = restored
        self.store.save(record)
        channel.publish(self._state_event(record))

        process = await self._start_runner(job_id)
        self.processes[job_id] = process
        if record.cancel_requested:  # cancelled while the runner started
            process.terminate()
        tail_task = asyncio.ensure_future(self._tail_events(record, channel))
        try:
            await process.wait()
        finally:
            tail_task.cancel()
            try:
                await tail_task
            except (asyncio.CancelledError, Exception):
                pass
            self.processes.pop(job_id, None)
        self._consume_events(record, channel)

        if record.cancel_requested and process.returncode != 0:
            record.transition(CANCELLED)
        elif process.returncode == 0:
            record.transition(DONE)
        else:
            # Why the process ended (its fork server died) comes first; the
            # stderr tail is what the job itself printed before that.
            detail = getattr(process, "detail", None)
            record.error = "\n".join(
                part for part in (detail, self._stderr_tail(job_id)) if part
            ) or "runner exited with code %s" % process.returncode
            record.transition(FAILED)
        self.store.save(record)
        self._finish_channel(job_id, record)

    async def _start_runner(
        self, job_id: str
    ) -> "asyncio.subprocess.Process | ForkedRunner":
        """Start the process running one job; its stderr goes to ``stderr.log``."""
        job_dir = self.store.job_dir(job_id)
        if self.fork_server is not None:
            return await self.fork_server.fork(job_id, job_dir, self.cache_dir)
        argv = [sys.executable, "-m", "repro.serve.runner", str(job_dir)]
        if self.cache_dir is not None:
            argv += ["--cache-dir", self.cache_dir]
        with open(job_dir / STDERR_NAME, "wb") as stderr:
            return await asyncio.create_subprocess_exec(
                *argv, stdout=asyncio.subprocess.DEVNULL, stderr=stderr
            )

    def _stderr_tail(self, job_id: str) -> str:
        """The last ``_STDERR_TAIL`` characters of a job's ``stderr.log``."""
        try:
            data = (self.store.job_dir(job_id) / STDERR_NAME).read_bytes()
        except OSError:
            return ""
        return data.decode("utf-8", "replace")[-_STDERR_TAIL:].strip()

    async def _tail_events(self, record: JobRecord, channel: JobChannel) -> None:
        """Poll the job's event log while the runner writes it."""
        while True:
            self._consume_events(record, channel)
            await asyncio.sleep(EVENT_POLL_INTERVAL)

    def _consume_events(self, record: JobRecord, channel: JobChannel) -> None:
        """Publish event-log lines not yet in the channel history."""
        events = self.store.read_events(record.id)
        fresh = events[channel.consumed:]
        channel.consumed = len(events)
        dirty = False
        for event in fresh:
            generation = event.get("generation")
            if isinstance(generation, int) and generation > record.generation:
                record.generation = generation
                dirty = True
            evaluations = event.get("evaluations")
            if isinstance(evaluations, int) and evaluations > record.evaluations:
                record.evaluations = evaluations
                dirty = True
            if event.get("type") == "checkpoint" and record.state == RUNNING:
                record.transition(CHECKPOINTED)
                dirty = True
            channel.publish(event)
        if dirty:
            self.store.save(record)

    def result_payload(self, job_id: str) -> dict:
        """The finished front artifact of one job (``front.json`` content)."""
        record = self.get(job_id)
        if record.state != DONE:
            raise JobNotFinishedError(
                "job %s has no result yet (state: %s)" % (job_id, record.state)
            )
        path = self.store.job_dir(job_id) / "front.json"
        return json.loads(path.read_text(encoding="utf-8"))
