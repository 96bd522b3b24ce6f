"""Reference kernel: a fixed piece of work that does not touch twistlab.

On a shared host the same code runs up to half again as long in some
spells as in others, in CPU time as well as wall time.  Timing this kernel
between the workload's set-ups and passes gives the machine's speed during
the run, and run.py reports times in reference seconds:

    CPU seconds * REF_S / median kernel CPU seconds of the run

The kernel mixes what the workloads spend their time on (interpreted
Python, elementwise numpy over a few MB, a pass over a 25 MB array, complex
BLAS matmul, and large arrays faulted in fresh, which is where cli-mc spends
a fifth of its time in system calls), so a spell that slows them slows it
alike.  It never changes with the code under test.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal CPU time of one kernel run (measured on a 2 GHz Xeon, 2 vCPUs, one
# BLAS thread); the scale of the reported reference seconds.
REF_S = 0.5


def _python_loop():
    acc, table = 0, {}
    for i in range(500_000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return acc


def _elementwise(rng):
    a = rng.standard_normal(1 << 20)
    for _ in range(4):
        a = np.cumsum(np.exp(-a * a)) / a.size - 0.5 + 0.5 * a
    return float(a[-1])


def _large_array(rng):
    x = rng.standard_normal((100_000, 32))
    return float((np.abs(x) ** 0.5 * 1.01 - 0.3).sum())


def _matmul(rng):
    m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    for _ in range(3):
        m = (m @ m) / 512.0
    return complex(m[0, 0])


def _fresh_memory():
    for _ in range(4):
        np.empty(1 << 23).fill(1.0)  # 64 MB: mapped anew, and faulted in, every time


def kernel_seconds() -> float:
    """CPU seconds of the calling thread for one run of the kernel."""
    rng = np.random.default_rng(0)
    t0 = time.thread_time()
    _python_loop()
    _elementwise(rng)
    _large_array(rng)
    _matmul(rng)
    _fresh_memory()
    return time.thread_time() - t0

