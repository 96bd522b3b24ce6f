import importlib
import inspect

import numpy as np
import pytest

import layertrace
from layertrace import Tracer, install, self_times, summarise


def test_self_time_of_synthetic_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 9]
    spans = [
        (2, 1, "job", "c.h", 2.0, 3.0),
        (1, 0, "job", "b.g", 1.0, 4.0),
        (3, 0, "job", "b.g", 5.0, 9.0),
        (0, None, "job", "a.f", 0.0, 10.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert summarise(spans) == {"a.f": [1, 3.0], "b.g": [2, 6.0], "c.h": [1, 1.0]}
    # self times add back up to the root span's duration
    assert sum(self_times(spans).values()) == 10.0


def test_tracer_records_parents_and_counts_each_error_once_per_layer():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("harness.suite")
    inner = tracer.open("twisted.green")
    boom = ValueError("x")
    tracer.close(inner, boom)
    deeper = tracer.open("twisted.mgf")
    tracer.close(deeper, boom)  # same exception, same layer: not counted again
    tracer.close(outer, boom)
    assert tracer.errors == {"twisted": 1, "harness": 1}
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    assert parents == {inner: outer, deeper: outer, outer: None}
    assert {job for _, _, job, *_ in tracer.spans} == {outer}
    with pytest.raises(RuntimeError):
        a = tracer.open("chain.x")
        tracer.open("chain.y")
        tracer.close(a)


def _bindings():
    """Identity snapshot of every module attribute and class method in the package."""
    snap = {}
    for layer in layertrace.LAYERS:
        mod = importlib.import_module(f"twistlab.{layer}")
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    snap[(mod.__name__, attr, meth)] = fn
    pkg = importlib.import_module("twistlab")
    for attr, obj in vars(pkg).items():
        snap[("twistlab", attr)] = obj
    return snap


def _lookup(key):
    mod = importlib.import_module(key[0])
    obj = getattr(mod, key[1])
    return vars(obj)[key[2]] if len(key) == 3 else obj


def test_install_patches_every_binding_and_uninstall_restores_them():
    from twistlab import cli, harness, paths, twisted

    before = _bindings()
    original_bridge = paths.bridge_values
    original_iso = harness.iso_suite
    inst = install(Tracer())
    try:
        assert harness.bridge_values is not original_bridge
        assert harness.bridge_values is paths.bridge_values
        assert cli.iso_suite is not original_iso
        assert cli.iso_suite is harness.iso_suite
        assert importlib.import_module("twistlab").green is twisted.green
        changed = [k for k, v in before.items() if _lookup(k) is not v]
        assert ("twistlab.harness", "bridge_values") in changed
        assert ("twistlab.functionals", "ExpField", "__call__") in changed
    finally:
        inst.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_calls_record_spans_counters_and_identical_results():
    from twistlab import build_dual, nchain, paths, twisted
    from twistlab.functionals import ProductField

    dp = build_dual(nchain(4))
    tm = twisted.build_twisted(dp)
    plain_z, plain_w = twisted.sample_twisted_batch(tm, 500, 3)
    plain_b = paths.bridge_values(dp, 1, 1, ProductField(), 300, 3)

    tracer = Tracer()
    inst = install(tracer)
    try:
        z, w = twisted.sample_twisted_batch(tm, 500, 3)
        b = paths.bridge_values(dp, 1, 1, ProductField(), 300, 3)
        with tracer.pause():
            twisted.green(dp)
    finally:
        inst.uninstall()

    assert np.array_equal(z, plain_z) and np.array_equal(w, plain_w)
    assert np.array_equal(b, plain_b)
    summary = summarise(tracer.spans)
    assert summary["twisted.sample_twisted_batch"][0] == 1
    assert summary["seeding.rng_stream"][0] >= 2
    assert "twisted.green" not in summary  # paused
    metrics = layertrace.layer_metrics(summary, tracer.counts, tracer.errors)
    assert metrics["twisted.draws"] == 500
    assert metrics["twisted.ess_frac"] == pytest.approx(abs(plain_w.mean()) ** 2)
    assert metrics["paths.paths"] == 300
    # the march chain from state 1 of 4 makes exactly 3 sojourns
    assert metrics["paths.steps_computed"] == pytest.approx(900.0)
    assert metrics["functionals.points"] > 0
    assert metrics["paths.bridge_calls"] == 1
