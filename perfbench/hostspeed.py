"""Host-speed probe: a fixed piece of work timed between a run's steps.

The benchmark runs on shared virtual machines whose speed changes by up to
1.6x from one minute to the next, so medians of raw wall time move with the
host rather than with the program. The benchmark therefore times this probe
throughout each cycle (before and after the operation, and after every
~20 ms of steps or between postprocess stages) and scales the cycle's
timings to a reference host speed:

    t_ref = t * REFERENCE_PROBE_S / mean probe time in the same cycle

The probe calls nothing from swarmsim, so a change to the program moves the
scaled times by the same factor as the raw ones; only the host's share of
the change is taken out. Its work mirrors the workloads': many numpy calls
on small arrays as in a raycast, small frozen objects, float math and dicts
as in the behaviours, and text formatting and parsing as in the trace
files. Of the kinds of probe tried, these tracked the workloads' speed
best; a memory-bandwidth probe did not. Probe time is left out of every
timed span, and the raw times are reported beside the scaled ones in the
run's info line.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Scaled times are seconds on a host where one probe takes this long on
# average. On the 2-vCPU x86_64 Xeon (2.1 GHz, Python 3.11, numpy 2.4) the
# benchmark was built on, the mean ranged from 0.7 to 1.2 ms.
REFERENCE_PROBE_S = 1.0e-3
# In-step probes run after a step once this much time has passed since the
# last probe.
PROBE_EVERY_S = 0.02
BURST = 4

_ANGLES = np.linspace(0.0, math.tau, 360, endpoint=False)
_DX, _DY = np.cos(_ANGLES), np.sin(_ANGLES)
_BODIES = np.linspace(-5.0, 5.0, 48 * 2).reshape(48, 2)
_VALUES = [j * 0.37 for j in range(40)]


@dataclass(frozen=True)
class _Pose:
    x: float
    y: float
    theta: float


def _work() -> float:
    total = 0.0
    # a raycast against 48 bodies
    ox, oy = _BODIES[:, 0], _BODIES[:, 1]
    b = _DX[:, None] * ox + _DY[:, None] * oy
    disc = b * b - (ox * ox + oy * oy - 0.04)
    hit = np.where(disc >= 0.0, b - np.sqrt(np.maximum(disc, 0.0)), np.inf)
    total += float(np.where(hit > 0.0, hit, np.inf).min())
    # many numpy calls on one scan's worth of beams
    for i in range(20):
        d = np.hypot(_DX * i, _DY)
        total += float(np.where(d > 1.0, d, np.inf).min())
    # interpreter work: small frozen objects, float math, dicts
    pose = _Pose(0.0, 0.0, 0.0)
    for _ in range(150):
        pose = _Pose(
            pose.x + math.cos(pose.theta) * 0.01,
            pose.y + math.sin(pose.theta) * 0.01,
            pose.theta + 0.001,
        )
        total += pose.x * pose.y
    acc: dict[int, float] = {}
    for j in range(150):
        acc[j % 17] = acc.get(j % 17, 0.0) + math.hypot(j, 1.0)
    total += sum(acc.values())
    # text work, as in writing and parsing trace rows
    row = ",".join(f"{v:.6f}" for v in _VALUES)
    total += sum(float(s) for s in row.split(","))
    return total


class HostSpeed:
    """Collects probe times; ``scale(first)`` turns raw into reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # probe seconds so far, to take out of timed spans
        self._last = time.perf_counter()

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def burst(self) -> None:
        for _ in range(BURST):
            self.probe()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, first: int) -> float:
        """Reference seconds per raw second for the probes since index ``first``."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[first:])
