"""How fast the shared host runs at the moment, from a fixed reference kernel.

Other machines share this VM's cores, so its speed drifts: a fixed CPU-bound
loop varied by up to 1.8x within one minute, and the median of a 30 s run of
CLI invocations moved by 20 to 40% between runs a few minutes apart. Process
CPU time follows wall time, so it does not remove the drift.

The benchmark therefore times this kernel just before and just after every
CLI invocation, in the same process tree and on the same CPU, and scales the
invocation's times by `REF_S` over the mean kernel pass time around it.
Reported times are thus in seconds at the host speed at which one kernel pass
takes `REF_S` seconds.

One pass mixes the three kinds of work the library does, in about equal
shares: a pure-Python loop, numpy calls on small arrays in a Python loop, and
random reads from an array larger than the CPU caches. It imports nothing
from the library, so no change to the library moves it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# one pass's median time on the 2-core Xeon VM the bounds were set on
REF_S = 0.06

_GRID = np.linspace(0.0, 1.0, 129)
_SMALL = np.random.default_rng(2011).random(1024)
_LARGE = np.random.default_rng(2012).random(2_000_000)
_GATHER = np.random.default_rng(2013).integers(0, _LARGE.size, 100_000)


def _python_loop() -> float:
    acc, table = 0.0, {}
    for i in range(150_000):
        acc += i * 0.5
        table[i & 255] = acc
    return acc


def _small_array_loop() -> float:
    acc = 0.0
    for _ in range(450):
        y = _SMALL * (1.0 - _SMALL) + 0.1
        j = np.searchsorted(_GRID, _SMALL)
        acc += float(np.sum(np.log(y))) + int(j[0])
    return acc


def _random_reads() -> float:
    acc = 0.0
    for _ in range(30):
        acc += float(_LARGE[_GATHER].sum())
    return acc


def kernel_seconds(budget_s: float) -> float:
    """Mean wall time of one kernel pass, over the passes that fill `budget_s`.

    A single pass takes about `REF_S` and catches the host's fast
    fluctuations; a sample spread over a share of an invocation's time
    follows the speed the invocation sees.
    """
    t0 = time.perf_counter()
    passes = 0
    while True:
        _python_loop()
        _small_array_loop()
        _random_reads()
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / passes


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one the kernel
    then measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
