"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts while it
runs: on a 2-vCPU VM the same code took up to 1.5 times as long in one
half-minute as in the next, because of load outside the VM. A median over
one run cannot average that out, since the drift is as slow as a run.

So the benchmark times a fixed reference loop (pure-Python arithmetic and
small ``eigvalsh`` calls, the two kinds of work the CLI does most) before
the first command of a pass, between each two commands and after the last.
A pass's time divided by the mean of its reference times, times ``REF_S``,
is its time at the reference speed: the seconds it would take on the host
when the reference loop takes ``REF_S``. A slower or faster program moves
this figure as much as it moves the raw time; the host's drift moves both
the pass and the reference loop and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the reference loop took (median) on the 2-vCPU Xeon VM the
# benchmark was defined on; it only fixes the scale of the scaled times.
REF_S = 0.021

PY_ITERATIONS = 150_000
EIGVALSH_CALLS = 800
_MATRIX = np.cos(np.add.outer(np.arange(9.0), np.arange(9.0)) / 3.0)  # symmetric


def reference_seconds() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PY_ITERATIONS):
        s += i * i % 7
    for _ in range(EIGVALSH_CALLS):
        np.linalg.eigvalsh(_MATRIX)
    return time.perf_counter() - t0


def scaled_passes(times: list[list[float]], refs: list[list[float]]) -> list[float]:
    """Each pass's seconds at the reference speed: the sum of its command
    times ``times[p]``, times ``REF_S`` over the mean of the reference times
    ``refs[p]`` taken during it."""
    return [sum(t) * REF_S / statistics.fmean(r) for t, r in zip(times, refs)]
