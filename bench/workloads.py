"""Inputs, jobs and oracles of the benchmark workloads.

Constructing a `Workload` is its set-up: the seed becomes input files
(chain YAML, circle and Levy models), which are loaded back through
`twistlab.modelio` and turned into dual pairs.  The benchmark computes its
own closed forms from the numbers it wrote (`ChainTruth`), so the oracles
do not trust the code under test.  Job seeds are fixed in workloads.json;
the workload seed only draws the input data.

`Workload.run_pass` runs the workload's fixed job list once.  A job is one
in-process CLI invocation or one engine call; only the call is timed (wall
time and the caller thread's CPU time), and its checks run afterwards.  A job fails when it raises, when a CLI job
writes no CSV (input or numerical error), when one of its exact-mode rows
fails, or when a benchmark-side oracle fails.  Monte Carlo row verdicts are
counted separately and never fail a job.  Every oracle also reports
whether it has power: an exact oracle must reject a plausible wrong value
(for example the potential V in place of the Green density G), and a
statistical one must have 4 SE below 10% of its target.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import re
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twistlab import build_dual, chain, cli, functionals, hilbert, modelio, paths, twisted

SPEC_FILE = Path(__file__).with_name("workloads.json")
PHASE_ROWS = 1000  # rows of the twisted sample whose phase is recomputed


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def _rng(seed, *names):
    return np.random.default_rng([int(seed)] + [zlib.crc32(n.encode()) for n in names])


def _floats(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


# ---------------------------------------------------------------- truths


class ChainTruth:
    """Closed forms of a chain computed straight from its (q, pi, mu) data."""

    def __init__(self, q, pi, mu):
        n = q.size
        self.q, self.pi, self.mu = q, pi, mu
        self.L = q[:, None] * (pi - np.eye(n))
        self.V = np.linalg.inv(-self.L)
        self.m = mu @ self.V
        self.G = self.V / self.m[None, :]
        weighted = self.m[:, None] * self.L
        self.skew_form = (weighted - weighted.T) / 2.0

    def green(self, chi):
        return np.linalg.inv(np.diag(chi) - self.L) / self.m[None, :]

    def phi(self, s):
        return math.exp(np.linalg.slogdet(-self.L)[1] - np.linalg.slogdet(np.diag(s) - self.L)[1])

    def mass_gap(self, weighted=True):
        sym = -(self.m[:, None] * self.L if weighted else self.L)
        sym = (sym + sym.T) / 2.0
        if weighted:
            s = 1.0 / np.sqrt(self.m)
            sym = sym * s[:, None] * s[None, :]
        return float(np.linalg.eigvalsh(sym)[0])

    def yaml(self) -> str:
        lines = [f"states: {self.q.size}", f"q: {_floats(self.q)}", "pi:"]
        lines += [f"  - {_floats(row)}" for row in self.pi]
        lines.append(f"mu: {_floats(self.mu)}")
        return "\n".join(lines) + "\n"


def random_chain_truth(n, rng, family) -> ChainTruth:
    """Dense non-reversible killed chain with every jump probability positive.

    ``dense`` draws like `twistlab.random_chain`: row sums of pi in
    [0.4, 0.85], rates in [0.5, 2] and a Dirichlet(1) initial law, so some
    reference masses are small and Green values large.  ``near-uniform``
    keeps jump weights, rates and initial masses within 20% of uniform and
    every row sum at 0.7; a job's cost and Monte Carlo error then vary little
    between seeds (on the dense family the median relative SE of cli-mc
    moved by 16% between seeds).
    """
    if family == "near-uniform":
        raw = rng.uniform(0.8, 1.2, (n, n))
        rows = np.full(n, 0.7)
        mu = rng.uniform(0.8, 1.2, n)
        q = rng.uniform(0.8, 1.25, n)
    elif family == "dense":
        raw = rng.uniform(0.2, 1.0, (n, n))
        rows = rng.uniform(0.4, 0.85, n)
        mu = rng.dirichlet(np.ones(n))
        q = rng.uniform(0.5, 2.0, n)
    else:
        raise ValueError(f"unknown chain family {family!r}")
    np.fill_diagonal(raw, 0.0)
    pi = raw / raw.sum(axis=1)[:, None] * rows[:, None]
    return ChainTruth(q, pi, mu / mu.sum())


class CircleTruth:
    """Real drift with random coefficients at frequencies 1..F."""

    def __init__(self, frequencies, rng):
        self.epsilon = float(rng.uniform(0.5, 2.0))
        self.coeffs = {
            k: complex(*rng.uniform(-0.5, 0.5, 2)) for k in range(1, frequencies + 1)
        }

    def hs_sum(self, K):
        k = np.arange(-K, K + 1).astype(float)
        front = k**2 / (k**2 + self.epsilon)
        total = 0.0
        for d, c in self.coeffs.items():
            for shift in (d, -d):
                l = k + shift
                ok = np.abs(l) <= K
                total += abs(c) ** 2 * float(np.sum(front[ok] / (l[ok] ** 2 + self.epsilon)))
        return total

    def yaml(self) -> str:
        rows = [f"  - [{k}, {c.real!r}, {c.imag!r}]" for k, c in self.coeffs.items()]
        return f"epsilon: {self.epsilon!r}\nb_hat:\n" + "\n".join(rows) + "\n"


class LevyTruth:
    """Symbol halves a_k ~ k^2, b_k ~ +-k, so sum (b_k / a_k)^2 converges."""

    def __init__(self, terms, rng):
        k = np.arange(1.0, terms + 1.0)
        self.a = k**2 * rng.uniform(0.5, 1.5, terms)
        self.b = k * rng.uniform(0.5, 1.5, terms) * rng.choice([-1.0, 1.0], terms)

    def partial_sum(self, count):
        return float(np.sum((self.b[:count] / self.a[:count]) ** 2))

    def yaml(self) -> str:
        return f"a: {_floats(self.a)}\nb: {_floats(self.b)}\n"


# ---------------------------------------------------------------- checks


@dataclass
class Check:
    name: str
    ok: bool
    powered: bool


def exact_check(name, value, truth, wrong, rtol=1e-9) -> Check:
    """Value equals truth to rtol, and rtol is far below truth's distance to a wrong value."""
    value, truth, wrong = np.asarray(value), np.asarray(truth), np.asarray(wrong)
    scale = max(float(np.abs(truth).max()), 1e-300)
    err = float(np.abs(value - truth).max()) / scale
    gap = float(np.abs(wrong - truth).max()) / scale
    return Check(name, bool(err <= rtol), bool(gap > 100.0 * rtol))


def stat_check(name, est, se, truth) -> Check:
    return Check(name, bool(abs(est - truth) <= 4.0 * se), bool(4.0 * se < 0.1 * abs(truth)))


def weighted_mean(num, den):
    """Real part of mean(num) / mean(den) and its delta-method standard error."""
    mean_den = den.mean()
    ratio = num.mean() / mean_den
    resid = (num - ratio * den) / mean_den
    return float(ratio.real), float(resid.real.std(ddof=1) / math.sqrt(num.shape[0]))


def plain_mean(values):
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.shape[0]))


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


class Stopwatch:
    """Wall time and the calling thread's CPU time since construction."""

    def __init__(self):
        self.wall0 = time.perf_counter()
        self.cpu0 = time.thread_time()

    def split(self):
        return time.perf_counter() - self.wall0, time.thread_time() - self.cpu0


@dataclass
class JobResult:
    name: str
    seconds: float
    cpu_seconds: float
    error: str = ""  # why the job produced no result, if it did not
    checks: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # CSV rows of a CLI job
    digest: str = ""
    rel_se: list = field(default_factory=list)  # SE / |target| of MC estimates

    @property
    def failed_exact(self):
        return sum(1 for r in self.rows if r["mode"] == "exact" and r["pass"] != "1")

    @property
    def failed_mc(self):
        return sum(1 for r in self.rows if r["mode"] == "mc" and r["pass"] != "1")

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.failed_exact > 0 or not all(c.ok for c in self.checks)

    @property
    def oracle_ok(self) -> bool:
        """Benchmark-side verdict: at least one check, all of them powered and passing."""
        return bool(self.checks) and all(c.ok and c.powered for c in self.checks)


# ---------------------------------------------------------------- CLI oracles


def _first(rows, pattern):
    for r in rows:
        hit = re.fullmatch(pattern, r["name"])
        if hit:
            return r, [int(g) for g in hit.groups() if g is not None and g.isdigit()]
    return None, []


def _iso_oracle(w, rows, stdout, argv, truth):
    checks = []
    for pattern in (r"bridge_f1_exact\[(\d+),(\d+)\]", r"field_correlation_vs_green\[(\d+),(\d+)\]"):
        row, idx = _first(rows, pattern)
        if row is not None:
            x, y = idx
            checks.append(exact_check(row["name"], float(row["rhs"]), truth.G[x, y], truth.V[x, y]))
    row, idx = _first(rows, r"occupation_f1_exact\[(\d+)\]")
    if row is not None:
        x = idx[0]
        checks.append(exact_check(row["name"], float(row["rhs"]), truth.G[x, x], truth.V[x, x]))
    return checks


def _example_oracle(w, rows, stdout, argv, truth):
    n = int(argv[argv.index("--n") + 1])
    checks = []
    row, _ = _first(rows, rf"example_n{n}_mass_gap_vs_closed_form")
    if row is not None:
        # the march chain's -A has eigenvalues 1 - cos(k pi / (n + 1))
        gap = 2.0 * math.sin(math.pi / (2 * (n + 1))) ** 2
        checks.append(exact_check(row["name"], float(row["lhs"]), gap, 2.0 * math.sin(math.pi / (2 * n)) ** 2))
    row, _ = _first(rows, rf"example_n{n}_bridge_local_time_m1")
    if row is not None:
        # the local time at x of the unit-rate march chain from x is Exp(1)
        checks.append(stat_check(row["name"], float(row["lhs"]), float(row["se_lhs"]), 1.0))
    return checks


def _diag_match(name, value, truth):
    p = int(np.argmin(np.abs(np.diag(truth.G) - value)))
    return exact_check(name, value, truth.G[p, p], truth.V[p, p])


def _q_oracle(w, rows, stdout, argv, truth):
    checks = []
    for pattern, col in (
        (r"q_moment_vs_derivative_oracle_k1", "lhs"),
        (r"positivity_moment_single_vs_permanent", "rhs"),
    ):
        row, _ = _first(rows, pattern)
        if row is not None:
            checks.append(_diag_match(row["name"], float(row[col]), truth))
    return checks


def _mgf_oracle(w, rows, stdout, argv, truth):
    s = w.oracle_rng("mgf").uniform(0.0, 0.05, truth.m.size)
    phi = truth.phi(s)
    value = twisted.mgf(w.dp_for(argv), s)
    return [exact_check("subject_mgf", value, phi, 1.0 / phi)]


def _mass_gap_oracle(w, rows, stdout, argv, truth):
    gap = truth.mass_gap()
    wrong = truth.mass_gap(weighted=False)
    first = stdout.splitlines()[0] if stdout else "nan"
    checks = [exact_check("printed_mass_gap", float(first), gap, wrong)]
    row, _ = _first(rows, "mass_gap")
    if row is not None:
        checks.append(exact_check(row["name"], float(row["lhs"]), gap, wrong))
    return checks


def _trace_oracle(w, rows, stdout, argv, truth):
    n = truth.m.size
    keep = np.sort(w.oracle_rng("trace").choice(n, size=n // 2, replace=False))
    traced = chain.trace_chain(w.dp_for(argv), keep.tolist())
    sub = np.ix_(keep, keep)
    restricted = np.linalg.inv(-truth.L[sub])  # what forgetting the Schur complement gives
    return [exact_check("subject_trace_potential", traced.V, truth.V[sub], restricted)]


def _circle_oracle(w, rows, stdout, argv, truth):
    K = int(argv[argv.index("--k-max") + 1])
    row, _ = _first(rows, "circle_hs_partial_sum")
    if row is None:
        return []
    return [exact_check(row["name"], float(row["lhs"]), truth.hs_sum(K), truth.hs_sum(K // 2))]


def _det2_oracle(w, rows, stdout, argv, truth):
    dim = int(argv[argv.index("--dim") + 1])
    t = w.oracle_rng("det2").standard_normal((dim, dim)) / math.sqrt(dim) + 0.3 * np.eye(dim)
    full = float(np.linalg.det(np.eye(dim) + t))
    return [exact_check("subject_det2", hilbert.det2(t), full * math.exp(-np.trace(t)), full)]


def _levy_oracle(w, rows, stdout, argv, truth):
    row, _ = _first(rows, "levy_partial_sum")
    if row is None:
        return []
    total = truth.a.size
    return [exact_check(row["name"], float(row["lhs"]), truth.partial_sum(total), truth.partial_sum(total // 2))]


ORACLES = {
    "verify-iso": _iso_oracle,
    "example-chain": _example_oracle,
    "verify-q": _q_oracle,
    "mgf-check": _mgf_oracle,
    "mass-gap": _mass_gap_oracle,
    "trace-check": _trace_oracle,
    "circle-check": _circle_oracle,
    "det2-check": _det2_oracle,
    "levy-check": _levy_oracle,
}


# ---------------------------------------------------------------- workloads


class Workload:
    """Generated inputs of one workload and its fixed job list."""

    def __init__(self, name, seed, workdir, spec=None):
        self.name = name
        self.seed = int(seed)
        self.spec = spec if spec is not None else load_spec()[name]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.truths = {}
        self.paths = {}
        for key, item in self.spec["inputs"].items():
            rng = _rng(seed, name, key)
            if item["kind"] == "chain":
                truth = random_chain_truth(item["states"], rng, item["family"])
            elif item["kind"] == "circle":
                truth = CircleTruth(item["frequencies"], rng)
            else:
                truth = LevyTruth(item["terms"], rng)
            path = self.workdir / f"{key}.yaml"
            path.write_text(truth.yaml(), encoding="utf-8")
            self.truths[key] = truth
            self.paths[key] = path
        self.dps = {
            key: build_dual(modelio.load_chain_spec(self.paths[key]))
            for key, item in self.spec["inputs"].items()
            if item["kind"] == "chain"
        }
        self.jobs = [
            [arg.format(**{k: str(p) for k, p in self.paths.items()}) for arg in argv]
            for argv in self.spec.get("jobs", [])
        ]

    def oracle_rng(self, tag):
        return _rng(self.seed, self.name, "oracle", tag)

    def _input_key(self, argv):
        if "--input" not in argv:
            return None
        target = argv[argv.index("--input") + 1]
        return next(k for k, p in self.paths.items() if str(p) == target)

    def dp_for(self, argv):
        return self.dps[self._input_key(argv)]

    def run_pass(self, paused=contextlib.nullcontext):
        """Run every job once; ``paused`` brackets the untimed checks."""
        if "engine" in self.spec:
            return self._engine_pass(paused)
        return [self._cli_job(i, argv, paused) for i, argv in enumerate(self.jobs)]

    def _cli_job(self, index, argv, paused):
        out = self.workdir / f"job{index}.csv"
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        gc.collect()
        watch = Stopwatch()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--out", str(out)])
        except (Exception, SystemExit) as exc:
            code = None
            error = f"raised {type(exc).__name__}: {exc}"
        res = JobResult(argv[0], *watch.split(), error=error)
        if error:
            return res
        if not out.exists():
            res.error = f"no CSV written (exit {code}): {stderr.getvalue().strip()[:200]}"
            return res
        data = out.read_bytes()
        res.digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        res.rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        for r in res.rows:
            rhs = float(r["rhs"])
            if r["mode"] == "mc" and rhs != 0.0:
                res.rel_se.append(float(r["se_lhs"]) / abs(rhs))
        key = self._input_key(argv)
        truth = self.truths[key] if key else None
        try:
            with paused():
                res.checks = ORACLES[argv[0]](self, res.rows, stdout.getvalue(), argv, truth)
        except Exception as exc:  # e.g. the subject call raises, or stdout is not a number
            res.checks = [Check(f"oracle raised {type(exc).__name__}: {exc}", False, False)]
        if not res.checks:
            res.checks.append(Check("oracle_rows_present", False, False))
        failing = sum(1 for r in res.rows if r["pass"] != "1")
        res.checks.append(Check("exit_code_counts_failing_rows", code == min(failing, 125), True))
        return res

    def _engine_pass(self, paused):
        e = self.spec["engine"]
        dp, truth = self.dps[e["chain"]], self.truths[e["chain"]]
        draws, count, seed = e["draws"], e["paths"], e["seed"]
        x = int(_rng(self.seed, self.name, "state").integers(dp.n))
        results = []

        def timed(name, call):
            gc.collect()
            watch = Stopwatch()
            try:
                out = call()
            except Exception as exc:
                results.append(JobResult(name, *watch.split(), error=f"raised {type(exc).__name__}: {exc}"))
                raise
            res = JobResult(name, *watch.split())
            results.append(res)
            return out, res

        try:
            tm, res = timed("build_twisted", lambda: twisted.build_twisted(dp))
            res.checks.append(exact_check("skew_form", tm.skew_form, truth.skew_form, -truth.skew_form))
            res.digest = digest(tm.half_factor, tm.skew_form)

            (z, w), res = timed("sample_twisted_batch", lambda: twisted.sample_twisted_batch(tm, draws, seed))
            head = z[:PHASE_ROWS]
            phase = 2.0 * ((head.real @ truth.skew_form) * head.imag).sum(axis=1)
            res.checks.append(exact_check("twist_phase", w[:PHASE_ROWS], np.exp(1j * phase), np.exp(-1j * phase)))
            res.digest = digest(z, w)

            g, res = timed("green", lambda: twisted.green(dp))
            res.checks.append(exact_check("green", g, truth.G, truth.V))
            est, se = weighted_mean(w * np.abs(z[:, x]) ** 2, w)
            res.checks.append(stat_check(f"field_correlation[{x},{x}]", est, se, g[x, x]))
            res.rel_se.append(se / abs(g[x, x]))
            res.digest = digest(g)
            rho = np.abs(z) ** 2
            del z, head

            chi = np.full(dp.n, float(e["chi"]))
            target = truth.green(chi)[x, x] * truth.phi(chi)

            def bridge():
                return twisted.mgf(dp, chi), paths.bridge_values(
                    dp, x, x, functionals.ExpField(chi, dp.m), draws, seed, offsets=rho
                )

            (phi, vals), res = timed("bridge_values", bridge)
            res.checks.append(Check("phi_not_vacuous", bool(truth.phi(chi) >= 0.1), True))
            res.checks.append(exact_check("mgf", phi, truth.phi(chi), 1.0))
            est, se = weighted_mean(w * vals, w)
            res.checks.append(stat_check(f"bridge_exp[{x},{x}]", est, se, target))
            res.rel_se.append(se / abs(target))
            res.digest = digest(vals)
            del rho, vals

            (fields, lives), res = timed("occupation_batch", lambda: paths.occupation_batch(dp, x, count, seed))
            for label, sample, want in (
                (f"occupation_mean[{x},{x}]", fields[:, x], truth.G[x, x]),
                (f"lifetime_mean[{x}]", lives, float(truth.V[x].sum())),
            ):
                est, se = plain_mean(sample)
                res.checks.append(stat_check(label, est, se, want))
                res.rel_se.append(se / abs(want))
            res.digest = digest(fields, lives)
        except Exception:  # the failing job is already recorded; later jobs need its output
            pass
        return results
