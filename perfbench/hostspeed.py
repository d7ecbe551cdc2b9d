"""Host speed, sampled in the measured thread while it runs.

The benchmark runs on shared 2-vCPU hosts. There a fixed piece of
Python runs at speeds up to 1.7x apart, in phases that last from a
fraction of a second to minutes, and nothing inside the guest shows it:
no steal time, no run-queue wait, no hardware counters. A workload pass
of a few seconds then takes 0.2-0.45 (IQR/median) more or less time
from one run to the next, on identical code.

So every timed process samples its own speed. A SIGALRM handler runs
a fixed pure-Python kernel every PERIOD_S seconds, in the main thread,
between two bytecodes of the program, and records how long the kernel
took. The pass's speed is the mean of REF_KERNEL_S / sample over the
pass, and a measured time is reported as `rescale(seconds)`: the
seconds less the kernel's own time, times that speed. That is the time
the pass would take with the host at the reference speed, at which the
kernel takes REF_KERNEL_S. Raw seconds are reported beside it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# About the median kernel time on the 2-vCPU Xeon host the bounds in
# BENCHMARK.json were set on (p5-p95: 120-200 us), so rescaled seconds
# read close to raw ones there.
REF_KERNEL_S = 150e-6


def _kernel() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the kernel's run time every PERIOD_S while started."""

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        """Stop sampling; the kernel's total time and the mean speed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        busy = sum(self.samples)
        if not self.samples:  # shorter than one period: sample once now
            self._sample()
        speed = sum(REF_KERNEL_S / s for s in self.samples) / len(self.samples)
        return {"samples": len(self.samples), "busy_s": busy, "speed": speed}


def rescale(seconds: float, probe: dict) -> float:
    """`seconds` measured under `probe`, at the reference speed."""
    return (seconds - probe["busy_s"]) * probe["speed"]
