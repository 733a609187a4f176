"""Fixed references that every timed piece of work is divided by.

The kernel is small dense linear algebra on 6x6 matrices, the same kind of
work (and the same mix of interpreter dispatch and BLAS/LAPACK calls) as the
program's inner loops.  Its inputs never change, and it uses numpy only: it
must not import kossprobe, so that no change to the program can move it.
Machine speed drifts by tens of percent on a shared host; the kernel slows
down with the program, so the program's time divided by the kernel's time,
measured interleaved with it in the same process, stays steady while both
drift.

Work done in a child process (a CLI call, a fresh import) is divided
instead by ``interpreter_start``: the wall time of starting a bare Python
interpreter, taken straight after it.  Process start-up tracks the cost of
spawning and importing far better than in-process arithmetic does.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

ITERATIONS = 80

_rng = np.random.default_rng(20081106)
_A = tuple(_rng.standard_normal((6, 6)) for _ in range(4))
_S = tuple(a @ a.T + np.eye(6) for a in _A)
_B = _rng.standard_normal(6)


def run(iterations: int = ITERATIONS, draws: bool = False) -> float:
    """One pass of the kernel, or a piece of one; returns a checksum so no
    work can be skipped.

    With ``draws``, every other iteration also seeds a generator and makes
    one binomial draw, for work that itself seeds and draws a lot.
    """
    acc = 0.0
    for i in range(iterations):
        a, s = _A[i % 4], _S[i % 4]
        acc += float((a @ s @ a.T)[0, 0])
        acc += float(np.linalg.eigvalsh(s)[0])
        acc += float(np.linalg.solve(s, _B)[0])
        if draws and i % 2 == 0:
            acc += float(np.random.default_rng(i).binomial(10**9, 0.01))
    return acc


def timed() -> float:
    """Wall time of one pass, in seconds."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def timed_median(repeats: int) -> float:
    """Median wall time of ``repeats`` passes, in seconds."""
    times = sorted(timed() for _ in range(repeats))
    return times[len(times) // 2]


def interpreter_start(env: dict) -> float:
    """Wall time, in seconds, of running a Python interpreter that does nothing."""
    t0 = time.perf_counter()
    # No timeout: waiting with one polls in sleeps and rounds the time.
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0
