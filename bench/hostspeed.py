"""The host's speed, timed next to the program's work.

On the shared 2-vCPU host this benchmark was built on, the same work ran at
speeds up to 2x apart.  The speed changed every few seconds to every few
minutes, with CPU time tracking wall time and little steal.  A run that met
a slow stretch read up to twice as slow, whatever the program did, and ten
runs spread by more than any bound of 25% could absorb.

So the program's work is timed in steps of a few tenths of a second at
most, and a fixed reference job that does not touch ``fuzzytrust`` is
timed on the same CPU before the first step and after each one.  A step's
time is multiplied by ``UNIT_S / mean(before, after)``: a scaled time is
what the step would have taken on a host where the job takes ``UNIT_S``.
A slower host slows both and cancels; a slower program moves only the
scaled time.  Short steps keep a change of speed inside a step rare.

The job has two parts, interpreter work (dict updates in a Python loop)
and small numpy operations, the two kinds of work the program does; each
part is timed as the faster of two tries.  Over an hour of trials on a
host whose speed moved by up to 3x, step time and the job's time
correlated 0.8-0.9, and the log-log slope of one against the other was
0.65-1.5, depending on the phase and on the slow stretch; so scaling
removes most of the host's effect, not all of it.
"""

from __future__ import annotations

import math
import time

import numpy as np

UNIT_S = 0.006  # the scale's unit: about what the job took on a fast stretch


def interpreter() -> dict:
    table: dict[int, float] = {}
    for i in range(24_000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
    return table


def arrays() -> np.ndarray:
    values = np.linspace(0.0, 1.0, 2048)
    for _ in range(480):
        values = np.minimum(np.maximum(values * 1.0001 - 0.00005, 0.0), 1.0)
    return values


def reference_s() -> float:
    """One timing of the reference job: the faster of two tries of each part."""
    total = 0.0
    for part in (interpreter, arrays):
        best = math.inf
        for _ in range(2):
            began = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - began)
        total += best
    return total


class Gauge:
    """Times work in steps between reference timings, and keeps them all."""

    def __init__(self):
        self.references: list[float] = []

    def run(self, work) -> list[tuple[float, float, object]]:
        """Run the generator ``work`` to its end.  Each ``yield`` ends a step
        and its end ends the last one.  Returns (seconds, scale, value) per
        step: ``value`` is what the step yielded, or for the last step what
        the generator returned.
        """
        before = reference_s()
        self.references.append(before)
        steps = []
        while True:
            began = time.perf_counter()
            try:
                value, done = next(work), False
            except StopIteration as stop:
                value, done = stop.value, True
            seconds = time.perf_counter() - began
            after = reference_s()
            self.references.append(after)
            steps.append((seconds, 2 * UNIT_S / (before + after), value))
            before = after
            if done:
                return steps


def single(fn, *args):
    """Work of one step: ``fn(*args)``."""
    yield from ()
    return fn(*args)


def total(steps) -> tuple[float, float]:
    """(seconds, scaled seconds) of steps together."""
    return math.fsum(s for s, _, _ in steps), math.fsum(s * k for s, k, _ in steps)
