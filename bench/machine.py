"""Machine-speed reference for scaling wall times.

The benchmark shares its cores with other tenants, whose load changes the
speed of this process by up to a factor of two within seconds; the
process's CPU time moves with its wall time, so the slowdown is not
scheduling.  A fixed reference kernel, timed between repetitions, measures
that speed.  It draws Philox normals and does elementwise numpy and
interpreter work of the kinds the engine does, but calls no collapsemc
code, so a change to the package cannot move it.

A wall time ``w`` measured between two references that took ``r0`` and
``r1`` seconds is reported as ``w * NOMINAL_S / ((r0 + r1) / 2)``: the time
it would have taken on a machine that runs the reference in ``NOMINAL_S``.

Set-up time is mostly file, loader and unmarshalling work, whose speed
drifts apart from the compute kernel's, so it has its own reference: a
fresh interpreter importing numpy, scaled to ``IMPORT_NOMINAL_S``.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np
from numpy.random import Generator, Philox

# Typical reference times on a 2-core Intel Xeon VM; only scales.
NOMINAL_S = 0.1
IMPORT_NOMINAL_S = 0.15

# The kernel has two parts, because the tenants' load slows them
# differently.  The first, like the engine's noise windows, fills a 21 MB
# (runs, 1024, 4) array of normals and steps through it one strided row at
# a time; the second is the per-step elementwise
# arithmetic on a small vector, dominated by interpreter and call overhead.
_RUNS, _ROWS, _CELLS = 640, 1024, 4
_STEPS, _WIDTH = 2500, 256


class Reference:
    """The reference kernel and the times it has taken."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time one run of the kernel; returns and records its seconds."""
        gen = Generator(Philox(key=np.array([1, 2], dtype=np.uint64)))
        start = perf_counter()
        xi = np.empty((_RUNS, _ROWS, _CELLS))
        for j in range(_RUNS):
            xi[j] = gen.standard_normal((_ROWS, _CELLS))
        r = np.zeros(_RUNS)
        for t in range(_ROWS):
            r += xi[:, t, 0] - xi[:, t, 1] + 0.5 * (xi[:, t, 2] - xi[:, t, 3])
        x = np.zeros(_WIDTH)
        for _ in range(_STEPS):
            e = np.exp(-np.abs(x))
            q = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            x += 0.01 * (q - 0.5) + 0.1 * gen.standard_normal(_WIDTH)
        ",".join(repr(float(v)) for v in np.concatenate([r, x]))
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def scaled(wall_s: float, before_s: float, after_s: float, nominal_s: float) -> float:
    """``wall_s`` at the machine speed where the reference takes ``nominal_s``."""
    return wall_s * nominal_s / ((before_s + after_s) / 2.0)


def child_seconds(args: list[str]) -> float:
    """Run a fresh interpreter that prints the seconds it timed, last."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> float:
    """Time a fresh interpreter's ``import numpy``."""
    return child_seconds(["-c", "import time; t = time.perf_counter(); import numpy; "
                                "print(repr(time.perf_counter() - t))"])
