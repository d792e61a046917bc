"""Paper-experiment workloads: ``repro run <experiment>`` in a closed loop.

One unit is one CLI invocation at registry defaults, exactly as a user types
it (``repro run photosynthesis-figure1 --seed N --output-dir D``), with its
printed report captured and its artifacts written under the benchmark's work
directory.  Each unit is checked against the paper claims its experiment
reproduces, read back from the ``result.json`` artifact.  The checks are
shape claims, not front digests, so they survive a deliberate change of the
random stream.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import time
import traceback
from pathlib import Path

import speed
from layers import LayerProbe, layer_times

#: Toy budget of the untimed warm-up unit: same code paths, a fraction of the work.
WARMUP_FLAGS = ("--population", "8", "--generations", "2")


def _check_figure1(payload: dict) -> list[str]:
    natural_uptake = payload["natural_points"]["present/low"][0]
    b = payload["candidates"]["B"]
    problems = []
    if not b["uptake"] >= natural_uptake:
        problems.append("candidate B uptake %.4g < natural %.4g" % (b["uptake"], natural_uptake))
    if not b["nitrogen_fraction_of_natural"] < 0.85:
        problems.append(
            "candidate B nitrogen fraction %.4g >= 0.85" % b["nitrogen_fraction_of_natural"]
        )
    return problems


def _check_figure4(payload: dict) -> list[str]:
    factor = payload["reduction_factor"]
    return [] if factor < 1.0 / 20.0 else ["violation reduction factor %.4g >= 1/20" % factor]


def _check_table2(payload: dict) -> list[str]:
    rows = {row["criterion"]: row for row in payload["selections"]}
    uptake = {name: row["objectives"][0] for name, row in rows.items()}
    nitrogen = {name: row["objectives"][1] for name, row in rows.items()}
    order = ("max_co2_uptake", "closest_to_ideal", "min_nitrogen")
    problems = []
    for label, column in (("uptake", uptake), ("nitrogen", nitrogen)):
        values = [column[name] for name in order]
        if not values[0] >= values[1] >= values[2]:
            problems.append("%s not ordered max >= ideal >= min: %s" % (label, values))
    if not uptake["max_co2_uptake"] > payload["natural_uptake"]:
        problems.append("max-uptake selection does not beat the natural leaf")
    for name, row in rows.items():
        if not 0.0 <= row["yield_percentage"] <= 100.0:
            problems.append("yield of %s outside [0, 100]: %s" % (name, row["yield_percentage"]))
    return problems


#: Workload name (the registered experiment it runs) -> check of its result.json.
EXPERIMENTS = {
    "photosynthesis-figure1": _check_figure1,
    "geobacter-figure4": _check_figure4,
    "photosynthesis-table2": _check_table2,
}


def setup_command(name: str) -> list[str]:
    """Python code of one set-up: import the CLI and resolve the experiment."""
    return [
        "-c",
        "import repro.cli.main; from repro.core.registry import get_experiment; "
        "get_experiment(%r)" % name,
    ]


def run_unit(name: str, seed: int, out_dir: Path, flags=()) -> tuple[float, list[str]]:
    """One ``repro run`` invocation; returns its wall time and check failures."""
    cli = importlib.import_module("repro.cli.main")  # the package re-exports main()

    argv = ["run", name, "--seed", str(seed), "--output-dir", str(out_dir), *flags]
    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except Exception:  # a crashing run is a failed unit, not a crashed benchmark
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    wall = time.perf_counter() - start
    if code != 0:
        return wall, ["repro run exited with code %d" % code]
    lines = [line for line in printed.getvalue().splitlines() if line.startswith("artifacts: ")]
    if not lines:
        return wall, ["repro run recorded no artifacts"]
    run_dir = Path(lines[-1][len("artifacts: "):])
    payload = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    return wall, EXPERIMENTS[name](payload)


def run(name: str, seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    """Warm up, then run units until ``seconds`` have been measured.

    Unit ``k`` runs the experiment at seed ``seed + k``, with a speed probe
    before each and after the last.  Traced, each seed runs twice, untraced
    then under the layer probe, and the pair gives the tracing overhead.
    """
    outcome = {
        "attempted": 0, "failed": 0, "problems": [], "walls": [], "traced_walls": [],
        "speed": [], "window_s": 0.0,
    }
    out_dir = work_dir / "runs"

    def unit(unit_seed, flags=(), counted=True):
        wall, problems = run_unit(name, unit_seed, out_dir, flags)
        if counted:
            outcome["attempted"] += 1
            outcome["failed"] += bool(problems)
        outcome["problems"].extend(problems)
        return wall, problems

    unit(seed, WARMUP_FLAGS, counted=False)
    spans_total: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    begin = time.perf_counter()
    k = 0
    while time.perf_counter() - begin < seconds:
        outcome["speed"] += [speed.probe() for _ in range(speed.PROBES)]
        wall, problems = unit(seed + k)
        outcome["window_s"] += wall
        if not problems:
            outcome["walls"].append(wall)
        if traced:
            with LayerProbe() as probe:
                wall, problems, spans = _traced_unit(lambda: unit(seed + k))
            if not problems:
                outcome["traced_walls"].append(wall)
                _accumulate(spans_total, layer_times(spans, wall))
                for key, value in probe.counts.items():
                    counts[key] = counts.get(key, 0) + value
            del spans  # tens of thousands of records would slow the next unit's GC
        k += 1
    outcome["speed"] += [speed.probe() for _ in range(speed.PROBES)]
    if traced:
        outcome["traced_wall_s"] = sum(outcome["traced_walls"])
        outcome["traced_units"] = len(outcome["traced_walls"])
        outcome["layers"] = spans_total
        outcome["counts"] = counts
        outcome["overhead_ratio"] = (
            statistics.median(outcome["traced_walls"]) / statistics.median(outcome["walls"]) - 1.0
            if outcome["walls"] and outcome["traced_walls"]
            else None
        )
    return outcome


def _traced_unit(call):
    from repro.obs import InMemorySink, Tracer, use_tracer

    sink = InMemorySink()
    with use_tracer(Tracer(sink)):
        wall, problems = call()
    return wall, problems, sink.spans


def _accumulate(total: dict, part: dict) -> None:
    for layer, values in part.items():
        into = total.setdefault(layer, {"calls": 0, "self_s": 0.0})
        into["calls"] += values["calls"]
        into["self_s"] += values["self_s"]
