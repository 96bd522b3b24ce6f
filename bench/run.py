"""Benchmark entry point: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload cli-mc --seed 1 --seconds 30 --trace 0

Run from anywhere inside a twistlab checkout; the package is imported from
the checkout's ``src/``.  The run sets up the workload's inputs from
``--seed``, then runs passes through the workload's fixed job list until
``--seconds`` (counted from the start, set-up included) are used, and
prints a facts line followed by one JSON result line (the last line of
standard output).

With ``--trace 0`` the result carries the end-to-end metrics: ``setup_s``
(median main-thread CPU time of several fresh-process set-ups), ``batch_s``
(the caller thread's CPU time for one pass: per job the median over passes,
summed over the job list), ``peak_rss_mb``, ``op_ok_frac`` (share of jobs
that did not fail) and ``mc_rel_se`` (median SE / |target| of the Monte
Carlo estimates).  Times are CPU times of a single-threaded run because on
a shared machine wall times moved by 10% between identical runs, and they
are given in reference seconds (see reference.py): a fixed kernel is timed
before every set-up and after every pass, and the times are scaled by
``REF_S`` over its median, because CPU times too moved by up to half between
slow and fast spells of the host.  With
``--trace 1`` untraced and traced passes alternate, and the result carries
the per-layer metrics of the traced passes plus the tracing overhead.

Every pass must reproduce the first pass's outputs byte for byte (CSV files
of CLI jobs, array digests of engine calls), traced passes included.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: batch_s counts the caller thread's
# CPU time, and with a second BLAS thread that time depends on whether the
# other core happens to be free (exact-lab passes split into two clusters
# 30% apart on a shared 2-core box).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import layertrace  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads(numpy):
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts():
    """Machine and code facts recorded beside every result (not gated)."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def setup_seconds(workload, seed, tmp, kernels):
    """Median main-thread CPU time of fresh-process set-ups (import, inputs, build_dual).

    Times the reference kernel before each set-up and appends it to ``kernels``.
    """
    times = []
    for i in range(SETUP_REPEATS):
        kernels.append(reference.kernel_seconds())
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(Path(tmp) / f"probe{i}")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def run(args, tmp, started, kernels):
    """Passes until ``--seconds`` since ``started`` are used; times the kernel after each."""
    import workloads

    wl = workloads.Workload(args.workload, args.seed, Path(tmp) / "inputs")
    tracer = layertrace.Tracer()
    passes = []  # (traced, job results, per-layer metrics or None)
    if not kernels:
        kernels.append(reference.kernel_seconds())
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            inst = layertrace.install(tracer)
            try:
                results = wl.run_pass(paused=tracer.pause)
            finally:
                inst.uninstall()
            summary = layertrace.summarise(tracer.spans)
            layers = layertrace.layer_metrics(summary, tracer.counts, tracer.errors)
        else:
            results = wl.run_pass()
            layers = None
        passes.append((traced, results, layers))
        kernels.append(reference.kernel_seconds())
        elapsed = time.perf_counter() - started
        needed = 4 if args.trace else 2
        if len(passes) >= needed and elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    return passes


def _median_pass(times):
    """Sum over jobs of each job's median time across passes.

    A pass on this kind of shared machine is now and then slowed in one of
    its jobs; taking the median job by job keeps such a hiccup out of the
    total better than taking the median of the pass totals.
    """
    return sum(statistics.median(job) for job in zip(*times))


def summarise(args, passes, speed):
    """(correct, attempted, failed, metrics, details) of a finished run.

    ``speed`` turns CPU seconds into reference seconds.
    """
    first_digests = [r.digest for r in passes[0][1]]
    deterministic = all([r.digest for r in results] == first_digests for _, results, _ in passes)
    jobs = [r for _, results, _ in passes for r in results]
    attempted = len(jobs)
    failed = sum(1 for r in jobs if r.failed)
    # a job that raised or wrote nothing produced no output to vouch for
    correct = deterministic and all(r.oracle_ok for r in jobs)
    untraced = [results for traced, results, _ in passes if not traced]
    batch = speed * _median_pass([[r.cpu_seconds for r in results] for results in untraced])
    details = {
        "passes": len(passes),
        "pass_cpu_s": [sum(r.cpu_seconds for r in results) for results in untraced],
        "pass_wall_s": [sum(r.seconds for r in results) for results in untraced],
        "deterministic": deterministic,
        "jobs": [
            {
                "name": r.name,
                "seconds": r.seconds,
                "failed": r.failed,
                "error": r.error,
                "failed_exact_rows": r.failed_exact,
                "failed_mc_rows": r.failed_mc,
                "checks": [[c.name, c.ok, c.powered] for c in r.checks],
            }
            for r in passes[0][1]
        ],
    }
    if not args.trace:
        rel_se = [v for r in passes[0][1] for v in r.rel_se]
        metrics = {
            "batch_s": (batch, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_ok_frac": ((attempted - failed) / attempted, "frac"),
            # with no estimate at all (every job failed) report 100% error
            "mc_rel_se": (statistics.median(rel_se or [1.0]), "frac"),
        }
        return correct, attempted, failed, metrics, details

    traced = [(results, layers) for is_traced, results, layers in passes if is_traced]
    traced_batch = speed * _median_pass([[r.cpu_seconds for r in results] for results, _ in traced])
    traced_wall = [sum(r.seconds for r in results) for results, _ in traced]
    metrics = {
        name: (statistics.median(layers[name] for _, layers in traced), layertrace.unit_of(name))
        for name in traced[0][1]
    }
    first = traced[0][0]
    metrics["harness.rows"] = (sum(len(r.rows) for r in first), "count")
    metrics["harness.rows_failed_exact"] = (sum(r.failed_exact for r in first), "count")
    metrics["harness.rows_failed_mc"] = (sum(r.failed_mc for r in first), "count")
    coverage = [
        sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS) / tb
        for (_, layers), tb in zip(traced, traced_wall)
    ]
    metrics["trace.batch_s"] = (traced_batch, "s")
    metrics["trace.overhead_s"] = (traced_batch - batch, "s")
    metrics["trace.coverage"] = (statistics.median(coverage), "frac")
    return correct, attempted, failed, metrics, details


def main(argv=None) -> int:
    args = _parse(argv)
    # turn a termination request into SystemExit, so the set-up probe in
    # flight is killed and waited for and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "twistlab" / "__init__.py").is_file():
        print(f"error: no twistlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    if args.workload not in workloads.load_spec():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    kernels = []
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        setup = setup_seconds(args.workload, args.seed, tmp, kernels) if not args.trace else None
        passes = run(args, tmp, started, kernels)
        speed = reference.REF_S / statistics.median(kernels)
        correct, attempted, failed, metrics, details = summarise(args, passes, speed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setup is not None:
        metrics = {"setup_s": (speed * setup[0], "s"), **metrics}
        details["setup_runs_s"] = setup[1]
    details["kernel_s"] = kernels
    details["facts"] = facts()
    details["workload"] = args.workload
    details["seed"] = args.seed
    print(json.dumps(details))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
