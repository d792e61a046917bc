"""The fork server: a warm parent process that forks one child per job.

Starting a fresh interpreter for every served job costs about a second of
imports (numpy, scipy, the problem registry) before the first generation.
The coordinator therefore starts one *zygote* on first use::

    python -m repro.serve.runner --zygote <data_dir>

It imports what every job needs (:data:`PRELOAD`), then waits on its stdin
for commands.  For each job it ``os.fork``\\ s a child that calls
:func:`repro.serve.runner.run_job` exactly as a fresh runner would and
``os._exit``\\ s with its code.  The zygote itself never builds a problem,
opens the disk cache or solves, so it holds no per-job state (SQLite
connections in particular never cross a fork).  Its command line keeps
``repro.serve.runner`` and the data directory, and its children share it,
so a process listing still attributes every job process to its service.

The control protocol is one JSON object per line.

Commands (stdin):

* ``{"op": "run", "job": ID, "job_dir": DIR, "cache_dir": DIR | null}``
  — fork a child for one job;
* ``{"op": "signal", "job": ID, "signal": N}`` — signal that job's child,
  only while it has not been reaped (so a recycled pid is never hit).

Replies (stdout):

* ``{"event": "ready", "pid": PID}`` once the imports are done;
* ``{"event": "started", "job": ID, "pid": PID}`` after each fork;
* ``{"event": "exit", "job": ID, "pid": PID, "code": CODE}`` when a child
  is reaped; ``CODE`` follows :attr:`subprocess.Popen.returncode`
  (negative: killed by that signal).  A failed fork replies ``exit`` at
  once, with ``"pid": null`` and an ``"error"`` text.

The child writes its stderr to ``stderr.log`` in the job directory.  End of
file on stdin, or SIGTERM, shuts the zygote down: it terminates its live
children, reaps every one of them and exits, so a server killed with
SIGKILL leaves no warm process behind.  A child whose zygote dies (it can
no longer be reaped or signalled through the zygote) kills itself.
"""

from __future__ import annotations

import importlib
import json
import os
import select
import signal
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any

from repro.serve.store import STDERR_NAME

__all__ = ["PRELOAD", "serve"]

#: Modules the zygote imports once so that no job child pays for them.
PRELOAD = (
    "numpy",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "repro.problems.builtins",
    "repro.core.artifacts",
    "repro.serve.runner",
)

#: Seconds between SIGTERM and SIGKILL for children still alive at shutdown.
_TERMINATE_GRACE = 5.0

#: Signals the zygote handles itself; blocked across a fork until the child
#: has reset them, so a cancel sent right after the fork is not swallowed.
_HANDLED = {signal.SIGCHLD, signal.SIGTERM, signal.SIGINT}


class _Zygote:
    """State of the fork-server loop: live children and the wake-up pipes."""

    def __init__(self, control: int) -> None:
        #: Descriptor the replies go to (the original stdout).
        self.control = control
        #: pid -> job id of every child forked and not yet reaped.
        self.children: dict[int, str] = {}
        self.stopping = False
        self.wake_r, self.wake_w = os.pipe()
        os.set_blocking(self.wake_r, False)
        os.set_blocking(self.wake_w, False)
        # Only the zygote holds the write end: a child sees end of file on
        # the read end exactly when the zygote is gone.
        self.lifeline_r, self.lifeline_w = os.pipe()

    def send(self, payload: dict[str, Any]) -> None:
        """Write one reply line; a closed control pipe is ignored."""
        try:
            os.write(self.control, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
        except OSError:
            pass

    def install_signals(self) -> None:
        """Wake the select loop on SIGCHLD/SIGTERM; leave SIGINT to the server."""
        signal.set_wakeup_fd(self.wake_w)
        signal.signal(signal.SIGCHLD, lambda signum, frame: None)
        signal.signal(signal.SIGTERM, self._on_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _on_sigterm(self, signum: int, frame: Any) -> None:
        self.stopping = True

    def reap(self, flags: int = os.WNOHANG) -> None:
        """Collect every exited child and report it (``flags=0``: wait for all)."""
        while self.children:
            try:
                pid, status = os.waitpid(-1, flags)
            except ChildProcessError:
                return
            if pid == 0:
                return
            job = self.children.pop(pid, None)
            if job is not None:
                code = os.waitstatus_to_exitcode(status)
                self.send({"event": "exit", "job": job, "pid": pid, "code": code})

    def command(self, message: dict[str, Any]) -> None:
        """Execute one control command."""
        if message.get("op") == "run":
            self.fork(message["job"], message["job_dir"], message.get("cache_dir"))
        elif message.get("op") == "signal":
            for pid, job in self.children.items():
                if job == message["job"]:
                    _signal(pid, int(message["signal"]))

    def fork(self, job: str, job_dir: str, cache_dir: "str | None") -> None:
        """Fork one child running the job; report its pid."""
        sys.stdout.flush()
        sys.stderr.flush()
        # The only other threads are the BLAS workers numpy and scipy start,
        # which OpenBLAS stops and restarts around a fork by its own handlers.
        signal.pthread_sigmask(signal.SIG_BLOCK, _HANDLED)
        try:
            pid = os.fork()
        except OSError as error:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _HANDLED)
            self.send({"event": "exit", "job": job, "pid": None, "code": 1,
                       "error": "fork server could not fork: %s" % error})
            return
        if pid == 0:  # pragma: no cover - runs in the forked child
            self._child(job_dir, cache_dir)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _HANDLED)
        self.children[pid] = job
        self.send({"event": "started", "job": job, "pid": pid})

    def _child(self, job_dir: str, cache_dir: "str | None") -> None:
        """Body of a forked child: the runner's ``main`` without the import."""
        code = 1
        try:
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _HANDLED)
            for fd in (self.control, self.wake_r, self.wake_w, self.lifeline_w):
                os.close(fd)
            null = os.open(os.devnull, os.O_RDWR)
            os.dup2(null, 0)
            os.dup2(null, 1)
            os.close(null)
            stderr = os.open(
                str(Path(job_dir) / STDERR_NAME),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            )
            os.dup2(stderr, 2)
            os.close(stderr)
            threading.Thread(
                target=_exit_with_zygote, args=(self.lifeline_r,), daemon=True
            ).start()
            from repro.serve.runner import run_job

            code = run_job(job_dir, cache_dir)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)

    def shutdown(self) -> None:
        """Terminate live children, reap all of them, within the grace period."""
        for pid in list(self.children):
            _signal(pid, signal.SIGTERM)
        deadline = time.monotonic() + _TERMINATE_GRACE
        while self.children and time.monotonic() < deadline:
            select.select([self.wake_r], [], [], 0.05)
            self._drain_wake()
            self.reap()
        for pid in list(self.children):
            _signal(pid, signal.SIGKILL)
        self.reap(0)

    def _drain_wake(self) -> None:
        try:
            while os.read(self.wake_r, 512):
                pass
        except BlockingIOError:
            pass

    def loop(self) -> None:
        """Serve control commands until end of file or SIGTERM."""
        pending = b""
        while not self.stopping:
            readable, _, _ = select.select([0, self.wake_r], [], [])
            if self.wake_r in readable:
                self._drain_wake()
            self.reap()
            if 0 not in readable:
                continue
            chunk = os.read(0, 1 << 16)
            if not chunk:
                return
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if line.strip():
                    self.command(json.loads(line))


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _exit_with_zygote(lifeline: int) -> None:  # pragma: no cover - child only
    """Kill this child once the zygote is gone (its lifeline pipe closed)."""
    while os.read(lifeline, 1):
        pass
    os.kill(os.getpid(), signal.SIGKILL)


def serve(data_dir: str) -> int:
    """Run the fork server until its control pipe closes; returns the exit code.

    ``data_dir`` is the service data directory; it only names the process
    (job directories arrive with each command).
    """
    # Replies go to a copy of stdout; whatever else writes to stdout (an
    # import, a child before its redirect) lands on stderr instead.
    control = os.dup(1)
    os.dup2(2, 1)
    for name in PRELOAD:
        importlib.import_module(name)
    zygote = _Zygote(control)
    zygote.install_signals()
    zygote.send({"event": "ready", "pid": os.getpid()})
    try:
        zygote.loop()
    finally:
        zygote.shutdown()
    return 0
