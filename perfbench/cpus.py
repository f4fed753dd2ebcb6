"""Host speed: run on the calmest CPU, and correct timings for its speed.

On a shared host each virtual CPU is slowed, independently of the others,
by other tenants: for stretches of a second up to minutes, by up to a
half.  Two things keep the benchmark's timings steady through that:

* a single-threaded sample pins itself, between timed units, to the CPU
  where a short probe runs fastest right now;
* every timed unit is bracketed by probes on the CPUs it runs on, and its
  wall time is scaled by ``REFERENCE_PROBE_S`` over the probes' mean, so
  it reads as seconds on a calm host.  The probe is interpreter work and
  allocates nothing, so it leaves the peak memory figure alone.  Over ten
  35 s windows of full-device attestations it cut the spread
  (IQR/median) of the windows' lower quartiles from 0.10 to 0.08 and
  their range from -21 %..+41 % to -3 %..+15 % of the median.

Probes run between timed units, never inside one.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

#: The probe's time on a calm 2-core x86-64 container (10th percentile of
#: 388 probes); a timing taken at that speed is left as is.
REFERENCE_PROBE_S = 0.0119

PROBE_ITERATIONS = 200_000


def _probe_once() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


def probe() -> float:
    """The probe's time on the current CPU, best of two."""
    return min(_probe_once(), _probe_once())


def pin_to_calmest(cpus: Iterable[int]) -> float:
    """Pin this process to the CPU where the probe is fastest; returns that
    CPU's probe time."""
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = probe()
    best = min(timings, key=timings.__getitem__)
    os.sched_setaffinity(0, {best})
    return timings[best]


def probe_all(cpus: Iterable[int]) -> float:
    """The mean probe time over ``cpus``, for work that runs on all of them;
    leaves the process free to run on all of them."""
    cpus = sorted(cpus)
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append(probe())
    os.sched_setaffinity(0, set(cpus))
    return sum(timings) / len(timings)


def corrected(seconds: float, *probes: float) -> float:
    """``seconds`` as it would read on a calm host."""
    return seconds * REFERENCE_PROBE_S * len(probes) / sum(probes)
