"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared virtual machine the same code runs up to ~1.7x slower for
stretches of tens of seconds (steal time, a busy sibling hyperthread), so a
raw time measured in one run says as much about the neighbours as about
the program.  The benchmark therefore runs :func:`reference_block` next to
every timed block of program work and reports compute-bound times scaled
to a machine that runs the reference block in :data:`NOMINAL_S`:

    normalised time = measured time x NOMINAL_S / measured reference time

There are two kernels, each shaped like one family of workloads:
``serving`` lower-cases and counts API names in a dict and takes small
float64 products, as the request paths do; ``gradients`` runs a forward
and backward pass of a JSMA-sized network, as the sweeps do.  They never
change, so two commits are scaled by the same yardstick.  Waiting (a
batching deadline, a dispatch schedule) is not scaled.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Tuple

import numpy as np

#: Seconds one reference block (either kernel) takes on the nominal
#: machine the results are scaled to: about what a 2-vCPU Xeon VM gives
#: when nothing else runs on it.
NOMINAL_S = 0.0025

_RNG = np.random.default_rng(20190624)
_NAMES = [f"NtApiCall{int(i)}Ex" for i in _RNG.integers(0, 491, size=430)]
_LEFT = _RNG.random((128, 491))
_RIGHT = _RNG.random((491, 40))
_X = _RNG.random((200, 491))
_SATURATED = _X >= 0.9
_W1, _W2, _W3 = _RNG.random((491, 96)), _RNG.random((96, 120)), _RNG.random((120, 2))
# Preallocated outputs: arrays this size would otherwise come from mmap or
# the heap depending on what the process freed before, and the kernel's
# speed must not depend on the program's allocation history.
_H1, _H2, _OUT = np.empty((200, 96)), np.empty((200, 120)), np.empty((200, 2))
_G1, _G2, _GX = np.empty((200, 96)), np.empty((200, 120)), np.empty((200, 491))


def _serving_work() -> None:
    for _ in range(12):
        counts: dict = {}
        for name in _NAMES:
            key = name.lower()
            counts[key] = counts.get(key, 0) + 1
    for _ in range(4):
        np.maximum(_LEFT @ _RIGHT, 0.0).sum()


def _gradient_work() -> None:
    # One forward and one backward pass of a JSMA-sized network, then the
    # saliency bookkeeping over the (200, 491) batch.
    np.maximum(np.matmul(_X, _W1, out=_H1), 0.0, out=_H1)
    np.maximum(np.matmul(_H1, _W2, out=_H2), 0.0, out=_H2)
    np.matmul(_H2, _W3, out=_OUT)
    np.multiply(np.matmul(_OUT, _W3.T, out=_G2), _H2 > 0, out=_G2)
    np.multiply(np.matmul(_G2, _W2.T, out=_G1), _H1 > 0, out=_G1)
    np.matmul(_G1, _W1.T, out=_GX)
    np.copyto(_GX, -np.inf, where=_SATURATED)
    np.argmax(_GX, axis=1)


#: The reference kernels: ``serving`` for the request paths (Python dicts
#: and small products), ``gradients`` for the JSMA sweeps (BLAS and array
#: passes over the attack batch).
KERNELS = {"serving": _serving_work, "gradients": _gradient_work}


def reference_block(kernel: str = "serving") -> Tuple[float, float]:
    """Run the reference work once; returns its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    KERNELS[kernel]()
    return time.perf_counter() - wall, time.process_time() - cpu


def reference(repeats: int = 3, kernel: str = "serving") -> Tuple[float, float]:
    """Median (wall, CPU) seconds of ``repeats`` reference blocks."""
    runs = [reference_block(kernel) for _ in range(repeats)]
    return median(run[0] for run in runs), median(run[1] for run in runs)
