"""The yardstick: a fixed computation that job times are divided by.

The host's speed drifts between regimes, up to about 40% apart, that
last from seconds to minutes.  A job timed beside the yardstick is slowed
by the same regime, so the ratio of the two keeps little of the drift.
The yardstick is made of the kinds of work impulsegame does, in fixed
sizes:

- a classical RK4 loop over a 4-vector, with scalar ``numpy`` calls in the
  right-hand side (as in ``riccati.solve_backward``);
- scalar ``PchipInterpolator`` evaluations in a Python loop (as in a
  rollout's threshold and coefficient look-ups);
- vectorised ``numpy`` over a grid of jumps, and ``repr`` formatting of
  floats into a string (as in the verifier and the CSV writers).

Its arrays stay under 1 MB, well below the jobs' own, so it does not
raise the worker's peak memory.

The PCHIP loop takes about two thirds of the time and the other parts a
sixth each.  On a 2-core VM whose speed drifted by about 20% between
30-second windows, this mix followed all three workloads' job times more
closely than an even mix of the three parts did.

It imports nothing from impulsegame, so no change to the program moves
it.  Its result is returned so that no part of it can be skipped.
"""

import io
import math
import time

import numpy as np
from scipy.interpolate import PchipInterpolator

RK4_STEPS = 800
PCHIP_EVALS = 9000
GRID = 100                # the vectorised part works on GRID x GRID arrays,
VECTOR_REPS = 30          # this many times
FORMAT_ROWS = 4000
FORMAT_CHUNK = 500        # rows formatted into one string before it is dropped

_TS = np.linspace(0.0, 1.0, 257)
_PCHIP = PchipInterpolator(_TS, np.exp(-_TS) * np.cos(7.0 * _TS))
_X = np.linspace(0.0, 10.0, GRID)


def _rk4():
    def rhs(t, y):
        e = np.exp(-0.1 * t)
        return np.array([-0.1 * y[0] + e, -0.5 * y[0] * y[0] - 0.2,
                         -0.2 * y[2] - e * y[0], -y[0] * y[2] - 0.3])

    y = np.array([1.0, 0.5, -1.0, 0.25])
    h = 1.0 / RK4_STEPS
    for i in range(RK4_STEPS, 0, -1):
        t = i * h
        k1 = rhs(t, y)
        k2 = rhs(t - 0.5 * h, y - 0.5 * h * k1)
        k3 = rhs(t - 0.5 * h, y - 0.5 * h * k2)
        k4 = rhs(t - h, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y.sum())


def _pchip():
    acc = 0.0
    for k in range(PCHIP_EVALS):
        acc += float(_PCHIP((k * 0.618034) % 1.0))
    return acc


def _vector():
    best = 0.0
    for rep in range(VECTOR_REPS):
        jumps = _X[:, None] - (_X[None, :] + 1e-3 * rep)
        cost = 3.0 + 2.0 * np.abs(jumps) + np.where(jumps > 0.0, 0.5 * jumps * jumps, 0.0)
        best += float(np.min(cost + np.sin(_X)[None, :], axis=1).sum())
    chars = 0
    for start in range(0, FORMAT_ROWS, FORMAT_CHUNK):
        buf = io.StringIO()
        for row in range(start, start + FORMAT_CHUNK):
            x = row * 1e-3
            buf.write(f"{x!r},{math.exp(-x)!r},{best * x!r}\n")
        chars += len(buf.getvalue())
    return best + chars


def yardstick():
    """Seconds the fixed computation takes now, and its (ignored) result."""
    t0 = time.perf_counter()
    result = _rk4() + _pchip() + _vector()
    return time.perf_counter() - t0, result
