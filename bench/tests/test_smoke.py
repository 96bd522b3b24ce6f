import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import workloads

BENCH = Path(__file__).resolve().parents[1]
TINY = {"states": {128: 16, 64: 8, 6: 4}, "--samples": "2000", "--k-max": "32"}


def tiny_spec(name):
    """The workload's job list at toy sizes: few states, few samples."""
    spec = copy.deepcopy(workloads.load_spec()[name])
    for item in spec["inputs"].values():
        if "states" in item:
            item["states"] = TINY["states"].get(item["states"], item["states"])
    for argv in spec.get("jobs", []):
        for flag in ("--samples", "--k-max"):
            if flag in argv:
                argv[argv.index(flag) + 1] = TINY[flag]
    if "engine" in spec:
        spec["engine"].update(draws=2000, paths=2000)
    return spec


@pytest.mark.parametrize("name", sorted(workloads.load_spec()))
def test_tiny_workload_pass_traced_and_untraced(name, tmp_path):
    wl = workloads.Workload(name, 5, tmp_path, spec=tiny_spec(name))
    plain = wl.run_pass()
    assert plain and all(not r.error for r in plain)
    assert all(r.checks and all(c.ok for c in r.checks) for r in plain)

    tracer = layertrace.Tracer()
    inst = layertrace.install(tracer)
    try:
        traced = wl.run_pass(paused=tracer.pause)
    finally:
        inst.uninstall()
    # the wrappers change nothing the program writes
    assert [r.digest for r in traced] == [r.digest for r in plain]
    metrics = layertrace.layer_metrics(layertrace.summarise(tracer.spans), tracer.counts, tracer.errors)
    covered = sum(metrics[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert covered <= sum(r.seconds for r in traced)
    assert covered >= 0.5 * sum(r.seconds for r in traced)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_spec_lists_jobs_and_reasons():
    spec = workloads.load_spec()
    assert sorted(spec) == ["cli-mc", "exact-lab", "field-large"]
    for item in spec.values():
        assert item["why"] and item["home"] and item["bypass"]
        assert ("jobs" in item) != ("engine" in item)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(spec)
