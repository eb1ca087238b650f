"""Host-speed probe: scales the benchmark's times to a fixed reference speed.

A shared host runs the same single-threaded Python code at speeds that
drift by up to about 1.9 times, in stretches from under a second to over a
minute, as other tenants load it. Longer runs do not average that away,
so two runs of the same code at different moments differ by more than a
regression worth catching.

The probe is a fixed burst of work, about 6 ms, that does not use botdet:
small matrix products with ``tanh`` and Python-level string parsing (the
shape of the per-op overhead of the GRU at H=32 and of ingest), then
gate-sized products (16 x 96 by 96 x 192, the shape of the GRU's work at
H=64). The runner takes ``BURSTS`` samples before and after every set-up
and every job, and the jobs take more while they run, outside their timed
steps. A time is reported at the reference speed::

    reported = measured * REFERENCE_S / median(bursts in or nearest the interval)

``REFERENCE_S`` is a constant: a typical burst time on the 2-vCPU Intel
Xeon host the benchmark was written on. A change to botdet changes what
the jobs measure and not the probe, so it shows in full; a stretch in
which the host is slower slows both and cancels out, as far as botdet's
code and the burst slow alike. The measured times stay in each run's
details and ``result-*.json``.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

BURSTS = 5
NEAREST = 6
ITERATIONS = 600
GATE_ITERATIONS = 40
REFERENCE_S = 0.006
_LINE = "1583020800.25,0.031,tcp,147.32.84.165,1025,->,147.32.80.9,53,CON,0,0,2,214,154"


def burst() -> float:
    """Wall time of one fixed burst of botdet-independent work."""
    h = np.full((16, 32), 0.5)
    w = np.full((32, 32), 0.01)
    x = np.full((16, 96), 0.1)
    u = np.full((96, 192), 0.01)
    total = 0.0
    start = perf_counter()
    for _ in range(ITERATIONS):
        h = np.tanh(h @ w) + 1e-3
        fields = _LINE.split(",")
        total += float(fields[0]) + float(fields[1]) + int(fields[4]) + len(fields[3])
    for _ in range(GATE_ITERATIONS):
        g = np.tanh(x @ u)
        total += g[0, 0]
    elapsed = perf_counter() - start
    if not (np.isfinite(h).all() and total > 0.0):
        raise RuntimeError("host probe produced a non-finite result")
    return elapsed


class Sampler:
    """Host-speed samples of one run: (midpoint time, burst seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Take one sample and return the time it took, for the caller to subtract."""
        start = perf_counter()
        elapsed = burst()
        self.samples.append((start + elapsed / 2.0, elapsed))
        return elapsed

    def bracket(self) -> None:
        for _ in range(BURSTS):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured over ``[start, end]`` to the reference speed.

        It uses every sample taken inside the interval and the ``NEAREST``
        samples closest to it outside.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        outside = sorted((max(start - t, t - end), d) for t, d in self.samples
                         if not start <= t <= end)
        near = inside + [d for _, d in outside[:NEAREST]]
        return REFERENCE_S / statistics.median(near)
