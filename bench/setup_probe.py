"""Time one fresh-process set-up of a workload.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Imports twistlab, generates and writes the workload's input files, loads
them back and builds the dual pairs, then prints the CPU seconds the main thread
spent on it (interpreter start-up excluded).
"""

import sys
import time

t0 = time.thread_time()

from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import twistlab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.Workload(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.thread_time() - t0)
