"""Work table: the factorisations, draws, walks and builds each call makes, counted exactly.

``WORK`` maps a name to a zero-argument call, the exact multiset of counted events the call makes
before it returns or raises (``raise`` and the class, if it raises) and an optional patch, run
first.  An event is a call of an `np.linalg` function that the package calls, keyed by its first
argument's shape; a twisted draw at its `harness` binding, by (count, seed); a `paths._walk`, by
(start, paths); a `hilbert.circle_B_matrix` build, by K; or a call of `yaml.compose`,
`twisted._cm_differences` or argparse's `_SubParsersAction.add_parser`.  Inputs are built, and
the chains of ``SUITES`` cached, before the count starts.  Every command has an entry on its
``SUITES`` input that runs clean, and the counted `np.linalg` names are exactly those the package
calls.
"""

import argparse
import ast
import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np
import pytest
import yaml

from twistlab import cli, harness, hilbert, paths, twisted
from twistlab.chain import ChainSpec, build_dual, nchain, random_chain
from twistlab.modelio import load_chain_spec
from twistlab.seeding import rng_stream

from test_chain import NEAR_UNIT_RADIUS
from test_exports import SRC
from test_modelio import GOOD_CHAIN, chain_yaml
from test_mutations import SUITES, _clean

LINALG = ("cholesky", "det", "eigvals", "eigvalsh", "inv", "slogdet", "solve")
# attribute -> (its owner, the event one call counts as, from the call's arguments)
COUNTED = {
    **{name: (np.linalg, lambda a, *_, name=name: f"{name}{np.shape(a)}") for name in LINALG},
    "sample_twisted_batch": (harness, lambda tm, count, seed: f"draw{count, seed}"),
    "_walk": (paths, lambda dp, start, b, rng: f"walk{start, b}"),
    "circle_B_matrix": (hilbert, lambda model, K: f"circle_B_matrix({K})"),
    "compose": (yaml, lambda *_, **__: "compose"),
    "_cm_differences": (twisted, lambda n: "_cm_differences"),
    "add_parser": (argparse._SubParsersAction, lambda *_, **__: "add_parser"),
}


def counting(mp, names=COUNTED) -> list:
    """Wrap the counted calls ``names`` under monkeypatch ``mp``; each call appends its event to the list returned."""
    made = []

    def wrap(real, event):
        return lambda *args, **kwargs: made.append(event(*args, **kwargs)) or real(*args, **kwargs)

    for name in names:
        owner, event = COUNTED[name]
        mp.setattr(owner, name, wrap(getattr(owner, name), event))
    return made


def _minors(n, of):  # the slogdet of each principal submatrix off a subset of ``of`` states of an n-state chain
    return {f"slogdet{(n - k, n - k)}": math.comb(of, k) for k in range(of + 1)}


def _batch(mp):  # a walk set of 2000 paths takes one full batch and one partial one
    mp.setattr(paths, "BATCH", 1500)


_rng = rng_stream(32, "twisted-tests")
DP6, STACK = build_dual(random_chain(6, _rng)), _rng.uniform(0.0, 2.0, (7, 6))
SWEPT, BEYOND = (build_dual(random_chain(n, rng_stream(seed, "twisted-tests"))) for n, seed in ((6, 36), (7, 39)))
DP64, DP3 = build_dual(random_chain(64, rng_stream(40, "twisted-tests"))), build_dual(nchain(3))
PI32 = random_chain(32, rng_stream(3, "radius-tests")).pi
# the chain sizes the benchmark workloads write, in the flat layout; and a file the line reader leaves to YAML
FILES = {f"flat{n}.yaml": chain_yaml(random_chain(n, np.random.default_rng(11))) for n in (1, 6, 8, 64, 128)}
FILES["commented.yaml"] = GOOD_CHAIN.replace("states: 3", "states: 3  # a comment")


class Work(NamedTuple):
    call: Callable
    events: dict  # event -> how many times the call makes it
    patch: Callable | None = None  # patch(monkeypatch), before the count


W = Work
WORK = {
    # each command on its `SUITES` input
    "verify-iso": W(SUITES["verify-iso"], {
        "solve(4, 4)": 8, "inv(4, 4)": 4, "slogdet(4, 4)": 4, "slogdet(1, 4, 4)": 4, "cholesky(4, 4)": 1,
        "draw(2000, 3)": 1, "walk(1, 1500)": 1, "walk(1, 500)": 1}, _batch),
    "verify-q": W(SUITES["verify-q"], {  # the sweep's 16 minors, the oracle's 2 + 2 + 8 and the stacked Phi's 2
        "slogdet(4, 4)": 5, "slogdet(3, 3)": 9, "slogdet(2, 2)": 9, "slogdet(1, 1)": 5, "slogdet(0, 0)": 1,
        "slogdet(2, 4, 4)": 1, "solve(4, 4)": 6, "cholesky(4, 4)": 1, "draw(1000, 13)": 1, "_cm_differences": 1}),
    "mass-gap": W(SUITES["mass-gap"], {"eigvalsh(4, 4)": 1}),
    "mgf-check": W(SUITES["mgf-check"], {"solve(4, 4)": 3, "slogdet(4, 4)": 1, "slogdet(5, 4, 4)": 1}),
    "example-chain": W(SUITES["example-chain"], {
        "solve(3, 3)": 8, "inv(3, 3)": 2, "slogdet(3, 3)": 3, "slogdet(3, 3, 3)": 1, "slogdet(1, 3, 3)": 2,
        "cholesky(3, 3)": 1, "eigvalsh(3, 3)": 1, "draw(2000, 1)": 1, "walk(1, 1500)": 1, "walk(1, 500)": 1}, _batch),
    "trace-check": W(SUITES["trace-check"], {
        "solve(3, 3)": 1, "solve(5, 5)": 1, "slogdet(5, 5)": 1, "slogdet(2, 5, 5)": 1, "slogdet(8, 8)": 1,
        "slogdet(2, 8, 8)": 1}),
    "det2-check": W(SUITES["det2-check"], {
        "eigvals(6, 6)": 4, "eigvalsh(6, 6)": 1, "slogdet(6, 6)": 1, "solve(6, 6)": 1, "det(6, 6)": 1}),
    "circle-check": W(SUITES["circle-check"], {"circle_B_matrix(512)": 1}),  # no dense solve
    "levy-check": W(SUITES["levy-check"], {}),
    # det(-L), then buffers of 3, 3 and 1 matrices
    "mgf-three-matrices-a-buffer": W(lambda: twisted.mgf(DP6, STACK), {
        "slogdet(6, 6)": 1, "slogdet(3, 6, 6)": 2, "slogdet(1, 6, 6)": 1},
        lambda mp: mp.setattr(twisted, "STACK_BYTES", 3 * 6 * 6 * 8 + 7)),
    "sweep-on-6-states": W(lambda: twisted.complete_monotonicity_check(SWEPT), {**_minors(6, 6), "_cm_differences": 1}),
    "sweep-on-7-states": W(lambda: twisted.complete_monotonicity_check(BEYOND), {"raise ValueError": 1}),
    "oracle-at-3-of-64-states": W(lambda: twisted.q_moment_oracle(DP64, [3, 17, 60]), _minors(64, 3)),
    # every start expects at least one sojourn, so a bound of 1 refuses the walk before the draw
    "example-chain-over-budget": W(lambda: harness.example_suite(3, count=1000, seed=1), {
        "solve(3, 3)": 4, "slogdet(3, 3)": 1, "slogdet(3, 3, 3)": 1, "raise NumericalError": 1},
        lambda mp: mp.setattr(paths, "MAX_JUMPS", 1)),
    "accepted-spec": W(lambda: ChainSpec(q=np.ones(32), pi=PI32, mu=np.full(32, 1 / 32)), {"solve(32, 32)": 1}),
    "refused-spec": W(lambda: ChainSpec(q=np.ones(2), pi=NEAR_UNIT_RADIUS, mu=np.array([1.0, 0.0])), {
        "solve(2, 2)": 1, "eigvals(2, 2)": 1, "raise ChainError": 1}),
    **{f"flat-chain-file-{n}": W(lambda n=n: load_chain_spec(f"flat{n}.yaml"), {f"solve({n}, {n})": 1})
       for n in (1, 6, 8, 64, 128)},
    "commented-chain-file": W(lambda: load_chain_spec("commented.yaml"), {"compose": 1, "solve(3, 3)": 1}),
    "bridge-targets-without-targets": W(lambda: paths.bridge_targets(DP3, 2, [], 10, seed=1), {}),
    **{f"bridge-targets-without-targets-{case}": W(call, {"raise ValueError": 1}) for case, call in (
        ("or-paths", lambda: paths.bridge_targets(DP3, 0, [], 0, seed=1)),
        ("from-state-3", lambda: paths.bridge_targets(DP3, 3, [], 10, seed=1)))},
    "main-on-one-named-command": W(lambda: cli.main(["mass-gap", "--input", "flat1.yaml"]), {
        "add_parser": 1, "solve(1, 1)": 3, "eigvalsh(1, 1)": 1}),
    "main-help": W(lambda: cli.main(["--help"]), {"add_parser": len(cli.COMMANDS), "raise SystemExit": 1}),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    where = tmp_path_factory.mktemp("work")
    for name, text in FILES.items():
        (where / name).write_text(text)
    return where


@pytest.mark.parametrize("name", WORK)
def test_each_entry_makes_exactly_its_work(name, files, monkeypatch):
    call, events, patch = WORK[name]
    if name in SUITES:
        _clean(name)  # builds the suite's cached chain
    monkeypatch.chdir(files)
    if patch:
        patch(monkeypatch)
    made = counting(monkeypatch)
    try:
        call()
    except (Exception, SystemExit) as exc:
        made.append(f"raise {type(exc).__name__}")
    assert dict(Counter(made)) == events


def test_every_command_runs_clean_and_every_linalg_function_of_the_package_is_counted():
    assert {c: WORK[c].call for c in cli.COMMANDS if c in WORK} == {c: SUITES[c] for c in cli.COMMANDS}
    assert [c for c in cli.COMMANDS if any(e.startswith("raise") for e in WORK[c].events)] == []
    calls = [n.func for p in SRC.glob("*.py") for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(n, ast.Call)]
    linalg = {f.attr for f in calls if isinstance(f, ast.Attribute) and ast.unparse(f.value) == "np.linalg"}
    assert linalg == set(LINALG)
