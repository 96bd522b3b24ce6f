"""Outside-in layer tracing for the twistlab benchmark.

The layers are the ten `twistlab` modules.  `install` replaces every public
function of each module, and the hand-written methods of its public classes,
with a wrapper that records a span (name, parent, start, end) on a
`Tracer`; the spans under one top-level call (one job) share its id.  A function imported by name into another module (for example
``harness.bridge_values`` or ``cli.iso_suite``) is the same object, so every
module binding of it is patched, and `Installation.uninstall` puts each one
back.  Nothing under ``src/`` is modified.

A span's self time is its duration minus the durations of its direct child
spans.  Per-call counters (draws, paths, field points) are computed by hooks
that run after the span has closed, so their cost shows up as tracing
overhead and not as layer time.  ``paths.steps_computed`` is not counted
inside the engine: it is paths x the exact expected number of sojourns
e_x (I - pi)^-1 1 from the start state, and ``paths.ns_per_step`` divides
the paths layer's self time by it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "twistlab"
LAYERS = (
    "chain",
    "twisted",
    "paths",
    "functionals",
    "harness",
    "hilbert",
    "reporting",
    "modelio",
    "cli",
    "seeding",
)
# hand-written dunder methods worth a span: validation, evaluation, setup
_TRACED_DUNDERS = ("__init__", "__post_init__", "__call__")

# sub-layer time buckets: metric -> traced names whose self time it sums
BUCKETS = {
    "twisted.sample_s": ("twisted.sample_twisted_batch", "twisted.sample_twisted"),
    "twisted.cm_s": ("twisted.complete_monotonicity_check", "twisted.cm_grid"),
    "twisted.oracle_s": ("twisted.q_moment_oracle", "twisted.mgf_mixed_derivative"),
    "paths.bridge_s": ("paths.bridge_values", "paths.bridge_estimate"),
    "paths.occupation_s": ("paths.occupation_batch", "paths.occupation", "paths.sample_path"),
    "functionals.eval_s": tuple(
        f"functionals.{c}.__call__" for c in ("ExpField", "ProductField", "BumpField", "MonomialField")
    ),
    "chain.build_s": (
        "chain.build_dual",
        "chain.dual_pair_from_generator",
        "chain.ChainSpec.__post_init__",
        "chain.nchain",
        "chain.random_chain",
    ),
    "chain.trace_s": ("chain.trace_chain",),
    "hilbert.circle_B_s": ("hilbert.circle_B_matrix",),
    "hilbert.eta_s": ("hilbert.eta_kernel",),
    "hilbert.det2_s": ("hilbert.det2", "hilbert.det_multiplicativity"),
    "hilbert.gauss_s": ("hilbert.gaussian_char_identities",),
}
# call counts: metric -> traced name
CALLS = {
    "twisted.sample_calls": "twisted.sample_twisted_batch",
    "twisted.green_calls": "twisted.green",
    "paths.bridge_calls": "paths.bridge_values",
    "hilbert.circle_B_calls": "hilbert.circle_B_matrix",
    "seeding.streams": "seeding.rng_stream",
}


class Tracer:
    """In-memory span recorder; one per traced run, no global state."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (sid, parent sid or None, job: root span sid, name, start, end)
        self.counts = Counter()
        self.errors = Counter()
        self.paused = False
        self._stack = []
        self._raised = defaultdict(list)  # layer -> exceptions already counted

    def open(self, name):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        job = self._stack[0][0] if self._stack else sid
        self._stack.append((sid, parent, job, name, self.clock()))
        return sid

    def close(self, sid, exc=None):
        end = self.clock()
        top, parent, job, name, start = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while {top} is open")
        self.spans.append((sid, parent, job, name, start, end))
        if exc is not None:
            layer = name.split(".", 1)[0]
            seen = self._raised[layer]
            if not any(e is exc for e in seen):
                seen.append(exc)
                self.errors[layer] += 1

    @contextlib.contextmanager
    def pause(self):
        """Run untraced code (the benchmark's own checks) between traced calls."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def reset(self):
        """Drop recorded spans and counters, e.g. between passes."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        self._raised.clear()


def self_times(spans):
    """Self time per span id: duration minus the durations of direct children."""
    own = {sid: end - start for sid, _, _, _, start, end in spans}
    for sid, parent, _, _, start, end in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def summarise(spans):
    """Per traced name: [calls, self seconds]."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0])
    for sid, _, _, name, _, _ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += own[sid]
    return dict(out)


def _expected_visits(dp, start):
    """Exact mean number of sojourns of a path from ``start``: e_x (I - pi)^-1 1."""
    n = dp.n
    return float(np.linalg.solve(np.eye(n) - dp.pi, np.ones(n))[int(start)])


def _count_sample(tracer, bound, result):
    count = bound.arguments["count"]
    tracer.counts["twisted.draws"] += count
    tracer.counts["twisted.ess_weighted"] += count * abs(complex(result[1].mean())) ** 2


def _count_paths(start_arg):
    def hook(tracer, bound, result):
        count = bound.arguments["count"]
        dp = bound.arguments["dp"]
        tracer.counts["paths.paths"] += count
        tracer.counts["paths.steps_computed"] += count * _expected_visits(dp, bound.arguments[start_arg])

    return hook


def _count_points(tracer, bound, result):
    field = np.asarray(bound.arguments["field"])
    tracer.counts["functionals.points"] += field.size // max(1, field.shape[-1])


HOOKS = {
    "twisted.sample_twisted_batch": _count_sample,
    "paths.bridge_values": _count_paths("x"),
    "paths.occupation_batch": _count_paths("start"),
}
for _cls in ("ExpField", "ProductField", "BumpField", "MonomialField"):
    HOOKS[f"functionals.{_cls}.__call__"] = _count_points


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid, exc)
            raise
        tracer.close(sid)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound, result)
        return result

    return wrapper


def _targets(modules):
    """(functions by id, class methods) to trace, named layer.qualname."""
    functions = {}
    methods = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                functions[id(obj)] = (f"{layer}.{attr}", obj)
            elif (
                inspect.isclass(obj)
                and obj.__module__ == mod.__name__
                and not issubclass(obj, BaseException)
            ):
                for meth, fn in vars(obj).items():
                    if (
                        inspect.isfunction(fn)
                        and fn.__code__.co_filename == mod.__file__
                        and (not meth.startswith("_") or meth in _TRACED_DUNDERS)
                    ):
                        methods.append((obj, meth, fn, f"{layer}.{attr}.{meth}"))
    return functions, methods


class Installation:
    """Record of patched bindings; `uninstall` restores every one of them."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


def install(tracer) -> Installation:
    """Wrap every traced function and rebind it wherever twistlab binds it."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    functions, methods = _targets(modules)
    wrappers = {key: _wrap(tracer, name, fn) for key, (name, fn) in functions.items()}
    inst = Installation()
    owners = [
        mod for modname, mod in sorted(sys.modules.items())
        if modname == PACKAGE or modname.startswith(PACKAGE + ".")
    ]
    try:
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in wrappers and functions[key][1] is obj:
                    setattr(mod, attr, wrappers[key])
                    inst.patched.append((mod, attr, obj))
        for cls, meth, fn, name in methods:
            setattr(cls, meth, _wrap(tracer, name, fn))
            inst.patched.append((cls, meth, fn))
    except BaseException:
        inst.uninstall()
        raise
    return inst


def layer_metrics(summary, counts, errors):
    """Per-layer metrics of one traced pass from `summarise` output and counters."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, secs) in summary.items():
        layer_self[name.split(".", 1)[0]] += secs
    out = {f"{layer}.self_s": secs for layer, secs in layer_self.items()}
    for metric, names in BUCKETS.items():
        out[metric] = sum(summary.get(name, (0, 0.0))[1] for name in names)
    out["twisted.exact_s"] = (
        layer_self["twisted"] - out["twisted.sample_s"] - out["twisted.cm_s"] - out["twisted.oracle_s"]
    )
    for metric, name in CALLS.items():
        out[metric] = summary.get(name, (0, 0.0))[0]
    draws = counts["twisted.draws"]
    out["twisted.draws"] = draws
    out["twisted.ess_frac"] = counts["twisted.ess_weighted"] / draws if draws else 0.0
    out["paths.paths"] = counts["paths.paths"]
    steps = counts["paths.steps_computed"]
    out["paths.steps_computed"] = steps
    out["paths.ns_per_step"] = layer_self["paths"] / steps * 1e9 if steps else 0.0
    out["functionals.points"] = counts["functionals.points"]
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "paths.ns_per_step":
        return "ns"
    if metric.endswith("_frac"):
        return "frac"
    return "count"
