"""End-to-end and per-layer benchmark of the paper experiments and the job service.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload photosynthesis-figure1 --seed 2011 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --trace 1  # every workload, one after another

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``photosynthesis-figure1``, ``geobacter-figure4``, ``photosynthesis-table2``:
  ``repro run <experiment>`` at registry defaults in a closed loop
  (``paper_runs.py``);
* ``serve-mixed``: two clients driving ``repro serve`` with small science
  jobs (``serve_jobs.py``).

Each run warms up with one untimed unit, then measures for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``,
times in calibrated seconds (``speed.py``); with ``--trace 1`` it reports the per-layer metrics from a separate traced
measurement (``layers.py``).  Human-readable lines come first: the
environment, then one line per metric with its unit and sample count.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Everything the benchmark writes goes to ``.bench_work/`` in the checkout and
is removed at the end.  ``README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import paper_runs
import serve_jobs
import speed
from layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(paper_runs.EXPERIMENTS) + ("serve-mixed",)
#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3
#: A percentile needs this many samples above it to be reported as the tail.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with ``TAIL_BEYOND`` samples above it, and its label.

    Below ``2 * TAIL_BEYOND + 1`` samples that percentile would sit under the
    median, so the maximum is reported instead and labelled ``max``.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based nearest rank
    if rank > len(ordered) // 2:
        return ordered[rank - 1], "p%.0f" % (100.0 * rank / len(ordered))
    return ordered[-1], "max"


def measure_setup(arguments, ready: str | None, env: dict, work_dir: Path):
    """Wall times of ``SETUP_REPEATS`` fresh interpreters, and speed probes.

    ``arguments(scratch_dir)`` gives the interpreter's arguments.  Without
    ``ready`` the interpreter runs to completion; with it, the time runs
    until a stdout line starts with ``ready``, then the process is
    terminated and waited for.  A speed probe runs before each.
    """
    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(speed.probe())
        command = [sys.executable] + arguments(Path(tempfile.mkdtemp(dir=work_dir)))
        start = time.perf_counter()
        if ready is None:
            subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - start)
            continue
        process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                   stdout=subprocess.PIPE)
        try:
            for line in process.stdout:
                if line.startswith(ready):
                    samples.append(time.perf_counter() - start)
                    break
            else:
                raise RuntimeError("%s exited before printing %r" % (command, ready))
        finally:
            # SIGTERM, not SIGINT: a process started from a background job
            # may inherit an ignored SIGINT.
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
    return samples, probes


def environment(args: argparse.Namespace) -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():  # an exported checkout must not report an enclosing repo
        with contextlib.suppress(OSError):
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=False,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(outcome: dict, setup: list[float], probes: list[float]):
    """End-to-end metrics as ``name -> (value, samples, note)``.

    Times are calibrated seconds (``speed.py``): wall seconds scaled by
    ``REFERENCE_S`` over the median speed probe of this run.  The note
    gives the raw wall value.
    """
    scale = speed.REFERENCE_S / statistics.median(probes + outcome["speed"])
    walls = outcome["walls"]
    firsts = outcome.get("first_events", walls)
    n = len(walls)

    def timed(samples, value, note):
        if value is None:
            return None, len(samples), note
        return value * scale, len(samples), "%s; wall %.4g s" % (note, value)

    throughput = n / outcome["window_s"]
    return {
        "setup_s": timed(setup, statistics.median(setup), "median of fresh interpreters"),
        "latency_s.p50": timed(walls, statistics.median(walls) if walls else None, "median"),
        "first_progress_s.p50": timed(
            firsts, statistics.median(firsts) if firsts else None, "median"),
        "throughput_per_s": (throughput / scale, n, "over %.2f s; wall %.4g/s"
                             % (outcome["window_s"], throughput)),
        "peak_rss_mb": (peak_rss_mb(), 1, "process and children"),
    }


def per_layer(outcome: dict) -> dict[str, tuple[float | None, int, str]]:
    """Per-layer metrics as ``name -> (value, samples, note)``."""
    wall = outcome["traced_wall_s"]
    counts = outcome.get("counts", {})
    layers = outcome.get("layers", {})
    n = outcome["traced_units"]
    note = "%d traced unit(s), %.2f s" % (n, wall)
    metrics = {}
    for layer in LAYERS + ("other",):
        values = layers.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != "other":
            metrics["%s.calls" % layer] = (values["calls"], n, note)
        metrics["%s.self_s" % layer] = (values["self_s"], n, note)
        metrics["%s.share" % layer] = (values["self_s"] / wall if wall else 0.0, n, note)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    offered, accepted = counts.get("archive.offered", 0), counts.get("archive.accepted", 0)
    rows = counts.get("evaluation.rows", 0)
    disk_hits, disk_misses = counts.get("cache.disk_hits", 0), counts.get("cache.disk_misses", 0)
    evaluation_s = layers.get("evaluation", {}).get("self_s", 0.0)
    serve = outcome.get("serve", {})
    metrics.update({
        "archive.offered": (offered, n, note),
        "archive.accepted": (accepted, n, note),
        "archive.accept_ratio": (ratio(accepted, offered), n, note),
        "evaluation.rows": (rows, n, note),
        "evaluation.rows_per_s": (ratio(rows, evaluation_s), n, note),
        "evaluation.cache_hit_ratio": (ratio(counts.get("evaluation.cache_hits", 0), rows), n, note),
        "robustness.trials": (counts.get("robustness.trials", 0), n, note),
        "fba.lp_solves": (counts.get("fba.lp_solves", 0), n, note),
        "cache.disk_hits": (disk_hits, n, note),
        "cache.disk_misses": (disk_misses, n, note),
        "cache.disk_hit_ratio": (ratio(disk_hits, disk_hits + disk_misses), n, note),
        "cache.entries": (outcome.get("cache_entries", 0), 1, "DiskCache.stats()"),
        "trace.overhead_ratio": (outcome["overhead_ratio"], n, "traced / untraced median wall - 1"),
    })
    for phase in ("submit_s", "queue_wait_s", "startup_s", "solve_s", "finish_s"):
        metrics["serve.%s" % phase] = (
            serve.get(phase, 0.0), outcome.get("serve_jobs", 0), "median per job")
    return metrics


def run_workload(name: str, args: argparse.Namespace, env: dict, work_dir: Path) -> dict:
    """Run one workload; returns its outcome with the metrics attached."""
    traced = bool(args.trace)
    if name == "serve-mixed":
        setup = None if traced else measure_setup(
            serve_jobs.setup_command, "serving on", env, work_dir)
        outcome = serve_jobs.run(args.seed, args.seconds, traced, work_dir, env["PYTHONPATH"])
    else:
        setup = None if traced else measure_setup(
            lambda _: paper_runs.setup_command(name), None, env, work_dir)
        outcome = paper_runs.run(name, args.seed, args.seconds, traced, work_dir)
    outcome["metrics"] = per_layer(outcome) if traced else end_to_end(outcome, *setup)
    return outcome


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _report(name: str, outcome: dict, units: dict[str, str]) -> dict:
    """Print one workload's metric lines; returns its JSON metrics."""
    computed = outcome["metrics"]
    if set(computed) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json %s"
                           % (sorted(computed), sorted(units)))
    ratio = outcome["failed"] / outcome["attempted"] if outcome["attempted"] else 1.0
    print("[%s] attempted %d, failed %d, failed_ratio %.3f"
          % (name, outcome["attempted"], outcome["failed"], ratio))
    if outcome.get("walls"):
        walls = outcome["walls"]
        value, label = tail(walls)
        print("[%s] unit walls (s): %s" % (name, " ".join("%.3f" % w for w in walls)))
        # Printed, not gated: from one run's samples it is the maximum, whose
        # run-to-run spread exceeds any bound BENCHMARK.json may set.
        print("[%s] latency tail %s of %d: %.4g s wall" % (name, label, len(walls), value))
    for problem in outcome["problems"][:10]:
        print("[%s] FAILED: %s" % (name, problem.strip()))
    metrics = {}
    for metric, unit in units.items():
        value, samples, note = computed[metric]
        shown = "n/a" if value is None else "%.6g" % value
        print("[%s] %-28s %12s %-6s n=%-4d %s" % (name, metric, shown, unit, samples, note))
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no repro sources under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    args.seed %= 2**31

    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    # Children (set-up interpreters, job runners) import the sources of this
    # checkout, never an installed copy.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    units = _declared("per_layer" if args.trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        print("env: %s" % json.dumps(environment(args), sort_keys=True))
        results = {}
        for name in names:
            workload_dir = Path(tempfile.mkdtemp(dir=work_dir, prefix=name + "-"))
            results[name] = run_workload(name, args, env, workload_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_root.rmdir()

    metrics = {}
    attempted = failed = 0
    for name, outcome in results.items():
        reported = _report(name, outcome, units)
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update({prefix + metric: value for metric, value in reported.items()})
        attempted += outcome["attempted"]
        failed += outcome["failed"]
    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
