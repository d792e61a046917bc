"""Machine-speed probe that calibrates the end-to-end times.

On a shared virtual machine the speed of the same work drifts by tens of
percent over minutes, far more than the changes the benchmark must resolve.
A fixed pure-Python loop, timed in the same run as the units, slows down
with them: its time correlated 0.98 with ten-second medians of
``photosynthesis-table2`` unit walls on a 2-vCPU machine, and dividing by it
cut the spread between those medians from 46% to 9%.

So every end-to-end time is reported in *calibrated seconds*: wall seconds
times ``REFERENCE_S`` over the median time of this loop in the same run,
i.e. the wall time on a machine where the loop takes ``REFERENCE_S``.  The
loop touches no code of the repository, so a change to the program moves
the calibrated times exactly as it moves the wall times.  The probe runs
only while the program under test is idle, never concurrently with it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Time of one probe on the reference machine, seconds.
REFERENCE_S = 0.1
#: Probes per measuring point.  One probe alone varies by ~20%; the median
#: over a run's probes is what tracks the machine's speed.
PROBES = 2
_ITERATIONS = 1_500_000


def probe() -> float:
    """Wall time of one run of the fixed loop, seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def probe_cores(count: int) -> list[float]:
    """``count`` samples, each the mean of probes run on every usable core at once.

    For work spread over every core (the service's runners), whose speed a
    probe on one core tracks less well.  One child interpreter per core runs
    ``count`` probes; start-up is not timed.
    """
    code = "import speed; print(*(speed.probe() for _ in range(%d)))" % count
    children = [
        subprocess.Popen([sys.executable, "-c", code], cwd=Path(__file__).parent,
                         stdout=subprocess.PIPE, text=True)
        for _ in range(len(os.sched_getaffinity(0)))
    ]
    outputs = [child.communicate(timeout=60)[0] for child in children]
    if any(child.returncode for child in children):
        raise RuntimeError("speed probe child failed")
    per_core = [[float(value) for value in output.split()] for output in outputs]
    return [statistics.mean(samples) for samples in zip(*per_core)]
