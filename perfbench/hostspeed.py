"""Host speed, timed with a fixed calibration kernel between passes.

On a shared host the same code runs up to 1.7x slower from one minute
to the next, because other tenants load the physical cores, caches and
memory bus; CPU time follows wall time, so it is no escape.  A run
therefore times this kernel, which never changes with the program, many
times between its passes; the median kernel time over ``REFERENCE_S``
is the run's *host factor*.

The kernel mixes what the simulator spends its time on: numpy gathers
from a table larger than a core's private caches and a numpy sort (the
replay lanes' vector work), and an interpreter loop that churns a dict
and does integer arithmetic (the stream pass, the planner).  Host load
does not slow the simulator exactly as much as the kernel, and part of
the kernel's spread is its own, so the end-to-end times are divided by
the host factor raised to ``SENSITIVITY``, not by the factor itself.
Over 35 runs in five sets on the reference host, of both workloads,
0.5 gave the lowest mean spread of the exponents 0, 0.25, 0.5, 0.75
and 1: it cut the spreads of busy hours by a third to a half and left
those of quiet hours about as they were.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

#: Median kernel time on the reference host (2-vCPU Xeon VM) when quiet.
REFERENCE_S = 0.040
#: Exponent of the host factor that end-to-end times are divided by.
SENSITIVITY = 0.5
#: Kernel runs per call of ``HostSpeed.sample``.
REPEATS = 3

TABLE_LEN = 1 << 22  # 32 MiB of float64
GATHER_LEN = 1 << 21
SORT_LEN = 1 << 18
LOOP_LEN = 150_000


class HostSpeed:
    """Kernel timings of one run and the host factor they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(TABLE_LEN)
        self._index = rng.integers(0, TABLE_LEN, GATHER_LEN)
        #: Whole-kernel times, and each part's, in seconds.
        self.samples: List[float] = []
        self.parts: Dict[str, List[float]] = {"numpy": [], "dict": []}

    def _numpy(self) -> float:
        gathered = self._table[self._index]
        return float(np.argsort(gathered[:SORT_LEN])[0])

    def _dict(self) -> int:
        counts: Dict[int, int] = {}
        acc = 0
        for i in range(LOOP_LEN):
            key = (i * 7919) % 10007
            counts[key] = counts.get(key, 0) + 1
            acc += key & 7
        return acc + len(counts)

    def sample(self) -> None:
        for _ in range(REPEATS):
            total = 0.0
            for name, part in (("numpy", self._numpy), ("dict", self._dict)):
                start = time.perf_counter()
                part()
                elapsed = time.perf_counter() - start
                self.parts[name].append(elapsed)
                total += elapsed
            self.samples.append(total)

    def factor(self) -> float:
        """This run's host time for the kernel over the reference host's."""
        return statistics.median(self.samples) / REFERENCE_S

    def scale(self) -> float:
        """What this run's end-to-end times are divided by."""
        return self.factor() ** SENSITIVITY

    def describe(self) -> str:
        return ", ".join(f"{name} {statistics.median(times) * 1e3:.2f}"
                         for name, times in self.parts.items()) + " ms"
