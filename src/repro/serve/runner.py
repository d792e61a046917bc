"""The job runner: one process, one job, the plain ``solve()`` driver.

Every job runs in its own process: a child the coordinator's fork server
(:mod:`repro.serve.zygote`) forks and hands to :func:`run_job`, or, where
``os.fork`` does not exist, ``python -m repro.serve.runner <job_dir>``.
Running jobs out-of-process buys the service three properties threads
cannot give it:

* **crash isolation** — an evaluation that segfaults or raises kills only
  the runner; the coordinator sees a non-zero exit and marks the job
  ``failed`` with the tail of the job's ``stderr.log`` as error detail;
* **real cancellation** — cancel terminates the process mid-generation
  instead of waiting for cooperative checks;
* **parallel throughput** — N workers are N independent interpreters, so
  CPU-bound jobs scale without fighting one GIL.

The runner itself is deliberately thin: it re-reads the job's ``job.json``,
builds the problem and termination from the :class:`~repro.serve.jobs.JobSpec`,
and calls the existing :func:`repro.solve.solve` with a checkpoint directory
inside the job dir — which is the whole restart-recovery story, because
``solve()`` already restores the latest checkpoint bitwise.  Progress leaves
the process through two channels: an :class:`EventLogObserver` appending one
JSON line per generation/checkpoint/migration to ``events.jsonl`` (the
coordinator tails this file into the SSE stream), and the standard
:class:`~repro.obs.telemetry.RunTelemetry` artifacts when the spec asks for
them.

Example
-------
Run a stored job directory to completion (what a runner process does)::

    python -m repro.serve.runner <data_dir>/jobs/000001-4f9a2c
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Sequence, TextIO

from repro.serve.jobs import JobRecord
from repro.serve.store import CHECKPOINTS_DIR, EVENTS_NAME, RECORD_NAME
from repro.solve.events import (
    CheckpointEvent,
    GenerationEvent,
    MigrationEvent,
    Observer,
)

__all__ = ["EventLogObserver", "run_job", "main"]


class EventLogObserver(Observer):
    """Append one JSON line per solve event to a job's ``events.jsonl``.

    Each line is self-describing (``{"type": "generation", ...}``) and
    flushed immediately, so the coordinator's tail — and therefore every SSE
    subscriber — sees a generation the moment it completes, and a killed
    runner loses at most a partially written final line (which the store's
    reader skips).

    Example
    -------
    >>> import io, json
    >>> class _Event:
    ...     generation, evaluations, evaluations_delta, elapsed = 3, 24, 8, 0.5
    ...     front = []
    >>> handle = io.StringIO()
    >>> observer = EventLogObserver(handle)
    >>> observer.on_generation(_Event())
    >>> json.loads(handle.getvalue())["generation"]
    3
    """

    def __init__(self, target: "str | Path | TextIO") -> None:
        if hasattr(target, "write"):
            self._handle = target
        else:
            self._handle = open(target, "a", encoding="utf-8")

    def _emit(self, payload: dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def on_generation(self, event: GenerationEvent) -> None:
        """Log one generation row (progress counters + front size)."""
        self._emit(
            {
                "type": "generation",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "evaluations_delta": event.evaluations_delta,
                "front_size": len(event.front),
                "elapsed": round(event.elapsed, 6),
            }
        )

    def on_migration(self, event: MigrationEvent) -> None:
        """Log one migration row (archipelago solvers)."""
        self._emit(
            {
                "type": "migration",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "migrations": event.migrations,
            }
        )

    def on_checkpoint(self, event: CheckpointEvent) -> None:
        """Log one checkpoint row — the coordinator's ``checkpointed`` edge."""
        self._emit(
            {
                "type": "checkpoint",
                "generation": event.generation,
                "evaluations": event.evaluations,
                "path": event.path,
            }
        )

    def close(self) -> None:
        """Close the underlying file handle."""
        if hasattr(self._handle, "close"):
            self._handle.close()


def _population_overrides(solver_spec: Any, population: int | None) -> dict:
    """Map a generic population knob onto the solver's config field name."""
    if population is None:
        return {}
    fields = solver_spec.config_cls.__dataclass_fields__
    name = "population_size" if "population_size" in fields else "island_population_size"
    return {name: population}


def run_job(job_dir: "str | Path", cache_dir: "str | None" = None) -> int:
    """Execute one stored job to completion inside this process.

    Reads ``job.json``, runs :func:`repro.solve.solve` with checkpointing
    into the job directory, records the solve artifacts (front, ledger,
    manifest — plus telemetry when enabled) and returns the process exit
    code.  Raises whatever the solve raises: the ``main`` wrapper turns
    exceptions into a non-zero exit the coordinator maps to ``failed``.
    When ``cache_dir`` is given the solve runs behind the persistent
    evaluation cache stored there, shared with every other runner the
    service spawns.

    Example
    -------
    Drive a prepared job directory directly (tests do this in-process)::

        from repro.serve.jobs import JobSpec
        from repro.serve.store import JobStore

        store = JobStore("serve-data")
        record = store.create(JobSpec(problem="zdt1", generations=4))
        run_job(store.job_dir(record.id))
    """
    from repro.core.artifacts import record_solve_run
    from repro.problems import build_problem
    from repro.solve import get_solver, solve

    job_dir = Path(job_dir)
    payload = json.loads((job_dir / RECORD_NAME).read_text(encoding="utf-8"))
    record = JobRecord.from_dict(payload)
    spec = record.spec
    problem = build_problem(spec.problem)
    solver_spec = get_solver(spec.algorithm)
    observers: list[Observer] = [EventLogObserver(job_dir / EVENTS_NAME)]
    telemetry = None
    if spec.telemetry:
        from repro.obs import RunTelemetry

        telemetry = RunTelemetry(job_dir, resume="append")
        observers.append(telemetry)
    try:
        if telemetry is not None:
            telemetry.start()
        result = solve(
            problem,
            algorithm=solver_spec,
            seed=spec.seed,
            termination=spec.termination(),
            observers=observers,
            cache_dir=cache_dir,
            checkpoint_dir=str(job_dir / CHECKPOINTS_DIR),
            checkpoint_interval=spec.checkpoint_interval,
            **_population_overrides(solver_spec, spec.population),
        )
        if telemetry is not None:
            telemetry.finalize(result)
    finally:
        if telemetry is not None:
            telemetry.close()
        observers[0].close()
    record_solve_run(job_dir, problem, result, parameters=spec.as_dict())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve.runner <job_dir> [--cache-dir DIR]``.

    ``--zygote <data_dir>`` instead runs the coordinator's fork server
    (:mod:`repro.serve.zygote`), which forks one child per job and calls
    :func:`run_job` in it.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) == 2 and argv[0] == "--zygote":
        from repro.serve.zygote import serve

        return serve(argv[1])
    cache_dir: "str | None" = None
    if "--cache-dir" in argv:
        index = argv.index("--cache-dir")
        if index + 1 >= len(argv):
            print("--cache-dir needs a directory argument", file=sys.stderr)
            return 2
        cache_dir = argv[index + 1]
        del argv[index : index + 2]
    if len(argv) != 1:
        print(
            "usage: python -m repro.serve.runner <job_dir> [--cache-dir DIR]",
            file=sys.stderr,
        )
        return 2
    return run_job(argv[0], cache_dir=cache_dir)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
