"""Call timing that is steady on a shared machine.

Machines shared with other work run the same code up to twice as fast or as
slow from one ten-second stretch to the next: far more than the changes a
benchmark must resolve. ``Stopwatch`` scales each timed call by how fast the
machine ran a fixed calibration routine right around it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from contextlib import nullcontext

import numpy as np

_CAL_RNG = np.random.default_rng(20190905)
_CAL_KEYS = [_CAL_RNG.integers(0, 1000, size=4000) for _ in range(3)]
_CAL_BYTES = _CAL_RNG.random(16_000).tobytes()


def interpreter_work() -> float:
    """Dict and tuple churn like path search, small numpy calls like the scorer."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(800):
        counts[i % 89] = counts.get(i % 89, 0) + 1
        total += len((i, i + 1, str(i)))
    x = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
    for _ in range(15):
        x = np.tanh(x @ x * 0.01) + 0.5
    return total + float(x[0, 0])


def memory_work() -> float:
    """A lexsort, a buffer copy and a scatter-add, like building a graph index."""
    order = np.lexsort(_CAL_KEYS)
    buf = np.frombuffer(_CAL_BYTES).copy()
    hist = np.zeros(1001)
    np.add.at(hist, _CAL_KEYS[0][order] + 1, 1.0)
    return float(buf[order[0]]) + float(hist[-1])


# Calibration routines and their median time on the reference machine. A busy
# machine slows interpreter-bound and memory-bound code by different amounts,
# so each stage is scaled by the routine that matches its own kind of work.
CALIBRATIONS = {"interp": (interpreter_work, 0.68e-3), "memory": (memory_work, 1.0e-3)}


class Stopwatch:
    """Wall time of a call, scaled to the reference machine speed.

    A calibration routine runs just before and just after the timed call; the
    call's wall time is multiplied by the routine's reference time over its
    median measured time ("mixed" uses the sum of both routines). A machine
    slowed down by other work slows the calibration as much as the call, so
    the ratio stays put. Since the calibration runs no kgqa code, a change to
    the program moves only the call's own time.

    A single calibration sample is noisy. The median therefore also takes in
    the samples of the last ``RECENT_S`` before the call, and a call longer
    than ``LONG_CALL_S`` is followed by more samples, up to eleven, so that a
    long call is scaled by the machine's speed on both sides of it.
    """

    LONG_CALL_S = 0.05
    FRESH_S = 0.002     # a sample this recent still describes the machine
    RECENT_S = 0.25

    def __init__(self) -> None:
        self.calibrations: list[dict[str, float]] = []
        self.scaled_total = 0.0             # sum of every scaled time returned
        self.span = lambda name: nullcontext()  # a tracer's span, when tracing
        self._recent: deque[tuple[float, dict[str, float]]] = deque(maxlen=16)
        for _ in range(20):                 # warm caches before the first sample
            self._calibrate(list(CALIBRATIONS))
        self.calibrations.clear()
        self._recent.clear()

    def _calibrate(self, kinds: list[str]) -> dict[str, float]:
        sample = {}
        with self.span("bench.calibrate"):
            for kind in kinds:
                t0 = time.perf_counter()
                CALIBRATIONS[kind][0]()
                sample[kind] = time.perf_counter() - t0
        self.calibrations.append(sample)
        self._recent.append((time.perf_counter(), sample))
        return sample

    def time(self, kind: str, fn, *args, **kwargs):
        """(result, scaled seconds) of ``fn(*args, **kwargs)``.

        ``kind`` names the calibration to scale by: "interp", "memory" or
        "mixed".
        """
        kinds = list(CALIBRATIONS) if kind == "mixed" else [kind]
        usable = [(t, c) for t, c in self._recent if all(k in c for k in kinds)]
        if not usable or time.perf_counter() - usable[-1][0] > self.FRESH_S:
            self._calibrate(kinds)
        t0 = time.perf_counter()
        samples = [c for t, c in self._recent
                   if t0 - t < self.RECENT_S and all(k in c for k in kinds)]
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        extra = min(10, int(wall / self.LONG_CALL_S))
        samples += [self._calibrate(kinds) for _ in range(1 + extra)]
        ref = sum(CALIBRATIONS[k][1] for k in kinds)
        measured = sum(statistics.median(c[k] for c in samples) for k in kinds)
        scaled = wall * ref / measured
        self.scaled_total += scaled
        return out, scaled
