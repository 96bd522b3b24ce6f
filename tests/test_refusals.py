"""Refusal table: every `raise` statement of the package, reached by one call or one file.

``REFUSALS`` maps a `src/` function (module.qualname) to entries: a zero-argument call or a ``File`` that a
`modelio` loader reads, the exact class, the whole message (``*`` matches any run) and an optional patch, run
first, that injects an error a numpy call can return, lowers a bound, silences numpy's warnings or pins the YAML
loader.  A file entry is written to a file and loaded under each shipped loader (libyaml's as built, then pyyaml's
own), once if its patch pins one, and every run must end in the same raise.  The innermost `src/` frame of the
traceback must be a ``raise`` of that function, the class one that `cli.main` turns into exit 2 or 3, and the
entries must reach exactly the ``raise`` statements ``ast`` finds in the package.
"""

import ast
import dataclasses
import functools
import re
import traceback
import warnings
from pathlib import Path
from typing import Callable, NamedTuple
from unittest.mock import Mock

import numpy as np
import pytest
import yaml

from twistlab import modelio, paths
from twistlab.chain import ChainError, ChainSpec, NumericalError, build_dual, dual_pair_from_generator, mass_gap
from twistlab.chain import nchain, random_chain, trace_chain
from twistlab.functionals import BumpField, ExpField, MonomialField, ProductField
from twistlab.harness import trace_suite, verify_bridge_identity, verify_trace
from twistlab.hilbert import CircleDriftModel, LevyModel, circle_B_matrix, circle_model, det2, eta_kernel
from twistlab.hilbert import gaussian_char_identities, random_symmetric_nonneg
from twistlab.modelio import SpecFileError, load_chain_spec, load_circle_model, load_levy_model
from twistlab.paths import bridge_targets, bridge_values, occupation_batch
from twistlab.reporting import exact_report, info_report
from twistlab.seeding import rng_stream
from twistlab.twisted import build_twisted, cm_grid, complete_monotonicity_check, green, mgf, permanent
from twistlab.twisted import q_moment, q_moment_oracle, sample_twisted_batch

from test_exports import MODULES, SRC  # the package's modules, read from its directory

# `cli.main` turns these into exit 2 or 3; any other class would end it in a traceback
EXITING = (ValueError, ChainError, SpecFileError, NumericalError)
# libyaml's parser as built, and pyyaml's own
SHIPPED = (modelio.LOADER, yaml.BaseLoader)


class File(NamedTuple):
    load: Callable  # a `modelio` loader
    text: str | bytes | None  # None: no file


class Refusal(NamedTuple):
    call: Callable | File
    error: type
    message: str
    patch: Callable | None = None  # patch(monkeypatch), before the call


# valid inputs that entries spoil one field of
CHAIN = dict(q=[1.0, 1.0], pi=[[0.0, 0.5], [0.3, 0.0]], mu=[0.5, 0.5])
GENERATOR = dict(L=-np.eye(2), m=np.ones(2))
SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])
DP3, DP4 = build_dual(nchain(3)), build_dual(nchain(4))
# a path survives each jump with probability 0.999: about 1000 sojourns
SLOW_KILL = build_dual(ChainSpec(q=np.ones(2), pi=np.array([[0.0, 0.999], [0.999, 0.0]]), mu=np.array([0.5, 0.5])))
# states 0 and 1 form a closed class whose rows sum to 0.999999999999, inside the 1e-12 row-sum
# slack, so rho(pi) = 1 - 1e-12 to rounding; the radius test alone accepts this pi (LAPACK's
# rounding puts it below the bound), and the reach check refuses it
CLOSED_CLASS = [[0.08336944850900674, 0.9166305514899933, 0.0], [0.24099910509675213, 0.7590008949022479, 0.0],
                [0.0, 0.0, 0.33488522059781833]]
# symmetric, m = 1, killed at rate 4.4e-16 from state 2 only: the gap rounds below 0
GAPLESS = [[-4.0, 2.0, 2.0], [2.0, -2.0, 0.0], [2.0, 0.0, -2.0000000000000004]]
# -L has determinant -3: no constructor gives this DualPair, but mgf takes it
NOT_AN_M_MATRIX = dataclasses.replace(build_dual(nchain(2)), L=np.array([[-1.0, -2.0], [-2.0, -1.0]]))
# rates 1e-150 put the minors of -L off three states, over prod q, past float range
SLOW_RATES = build_dual(dataclasses.replace(nchain(3), q=np.full(3, 1e-150)))
CIRCLE = circle_model(1.0, {1: 0.5})
# det2(I + C + B) underflows for C = A A^T / 133 and B = (A - A^T) / 2, and the Gaussian target divides by it
A133 = 3.0 * rng_stream(133, "hilbert-tests").standard_normal((133, 133))
TARGET = (1, ProductField(), np.zeros((10, 3)))
# every comparison with NaN is false, so a sign or range check alone lets NaN through
NON_FINITE = (np.nan, np.inf)
DAMPED = {
    "green": green,
    "mgf": mgf,
    "mgf-stack": lambda dp, v: mgf(dp, np.stack([np.zeros_like(v, dtype=float), v])),
    "exp-field": lambda dp, v: ExpField(v, dp.m),
}
BAD_CHI = {"negative": [0.1, -0.2, 0.3], "nan": [np.nan, 0.0, 0.0], "inf": [np.inf, 0.0, 0.0]}
CHI_SHAPES = {"short": np.ones(2), "column": np.ones((3, 1)), "scalar": 0.5}
CHAIN_FILE = """\
states: 3
q: [1.0, 1.0, 1.0]
pi:
  - [0.0, 1.0, 0.0]
  - [0.0, 0.0, 1.0]
  - [0.0, 0.0, 0.0]
mu: [1.0, 0.0, 0.0]
"""
CIRCLE_FILE = "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n"
LEVY_FILE = "a: [1.0, 4.0]\nb: [1.0, 2.0]\n"


def _spec(**fields):
    return lambda: ChainSpec(**{**CHAIN, **fields})


def _generator(**fields):
    return lambda: dual_pair_from_generator(**{**GENERATOR, **fields})


def _first(values, bad):  # ``values`` with its first entry ``bad``
    out = np.array(values, dtype=float)
    out.flat[0] = bad
    return out


def _gauss(c, b):
    return lambda: gaussian_char_identities(c, b, np.ones(len(c)), np.ones(len(c)), count=8, seed=1)


def _eta(x=0.7, y=1.9, points=(0.7,), weights=(0.5,)):
    return lambda: eta_kernel(CIRCLE, circle_B_matrix(CIRCLE, 4), x, y, chi_points=points, chi_weights=weights)


def _failing(name):  # numpy.linalg's ``name`` raises as on a singular matrix
    return lambda mp: mp.setattr(np.linalg, name, Mock(side_effect=np.linalg.LinAlgError("Singular matrix")))


def _chain_file(old, new):
    return File(load_chain_spec, CHAIN_FILE.replace(old, new))


def _out_of_range(bad, n):
    return f"states out of range: {bad!r} is not an integer in 0..{n - 1}"


R = Refusal
REFUSALS = {
    "chain._require_finite": {
        f"{kind}-{f}-{bad}": R(make(**{f: _first(valid[f], bad)}), ChainError, f"{f} has a non-finite entry")
        for kind, make, valid in (("spec", _spec, CHAIN), ("generator", _generator, GENERATOR))
        for f in valid for bad in NON_FINITE
    },
    "chain.ChainSpec.__post_init__": {
        "q-empty": R(_spec(q=[], pi=np.zeros((0, 0)), mu=[]), ChainError, "q must be a nonempty vector of rates"),
        "pi-shape": R(_spec(pi=np.zeros((3, 3))), ChainError, "pi must be 2x2, got (3, 3)"),
        "mu-length": R(_spec(mu=[1.0]), ChainError, "mu must have length 2, got (1,)"),
        "q-negative": R(_spec(q=[1.0, -1.0]), ChainError, "all jump rates q must be positive"),
        "pi-negative": R(_spec(pi=[[0.0, -0.1], [0.3, 0.0]]), ChainError, "pi entries must lie in [0, 1]"),
        "row-above-one": R(_spec(pi=[[0.7, 0.5], [0.3, 0.0]]), ChainError, "row 0 of pi sums to 1.2 > 1"),
        "mu-negative": R(_spec(mu=[1.5, -0.5]), ChainError, "mu must be nonnegative"),
        "mu-not-a-probability": R(_spec(mu=[0.5, 0.2]), ChainError, "mu must sum to 1, got 0.7"),
        **{name: R(call, ChainError, "states [0, 1] cannot reach any killing state; lifetime would be infinite")
           for name, call in (("stochastic-rows", _spec(pi=[[0.0, 1.0], [1.0, 0.0]])),
                              ("closed-class", lambda: ChainSpec(q=np.ones(3), pi=CLOSED_CLASS, mu=[1.0, 0.0, 0.0])))},
        # rows within the row-sum and reach checks, spectral radius 1 - 7.5e-13
        "radius-at-the-bound": R(_spec(pi=[[0.5, 0.5 + 5e-13], [0.5, 0.5 - 2e-12]]), ChainError,
                                 "spectral radius of pi is 0.999999999999; must be < 1"),
    },
    "chain.DualPair.state_index": {
        **{f"{f.__name__}-keep-{keep}": R(lambda f=f, keep=keep: f(DP4, keep), ValueError, _out_of_range(bad, 4))
           for f in (trace_chain, verify_trace)
           for keep, bad in (([0, 1.5], 1.5), ([1.0, 2.0], 1.0), ([1, 2.0], 2.0), ([True], True))},
        **{f"{f.__name__}-at-{bad}": R(lambda f=f, bad=bad: f(DP4, [0, bad]), ValueError, _out_of_range(bad, 4))
           for f in (q_moment, q_moment_oracle) for bad in (-1, 4, 1.5, True)},
        **{f"bridge-identity-at-{x},{y}": R(lambda x=x, y=y: verify_bridge_identity(DP4, x, y, "bridge"), ValueError,
                                            _out_of_range(y if x == 0 else x, 4))
           for x, y in ((-1, 0), (0, -1), (4, 0), (0, 4), (1.5, 0), (0, 1.5), (True, 0))},
        **{f"occupation-from-{x}": R(lambda x=x: occupation_batch(DP3, x, 10, seed=1), ValueError, _out_of_range(x, 3))
           for x in (-1, 3, 1.5)},
        **{f"bridge-from-{x}": R(lambda x=x: bridge_targets(DP3, x, [TARGET], 10, seed=1), ValueError,
                                 _out_of_range(x, 3)) for x in (3, 1.5)},
        **{f"bridge-to-{y}": R(lambda y=y: bridge_targets(DP3, 0, [TARGET, (y, ProductField(), None)], 10, seed=1),
                               ValueError, _out_of_range(y, 3)) for y in (3, -1, 1.5)},
    },
    "chain.dual_pair_from_generator": {
        "shape": R(_generator(L=-np.eye(3)), ChainError, "generator must be 2x2, got (3, 3)"),
        "measure-with-a-zero": R(_generator(L=DP3.L, m=[1.0, 0.0, 1.0]), ChainError,
                                 "reference measure must be strictly positive"),
        "negative-jump-rate": R(_generator(L=[[-1.0, -0.5], [0.0, -1.0]]), ChainError,
                                "generator must have nonnegative off-diagonal entries"),
        "zero-diagonal": R(_generator(L=[[0.0, 0.0], [0.0, -1.0]]), ChainError,
                           "generator diagonal must be strictly negative"),
        "singular": R(_generator(L=[[-1, 1], [1, -1]]), NumericalError, "generator is singular: Singular matrix"),
        "ill-conditioned": R(_generator(L=[[-1e8 - 2.0, 1e8], [1e8, -1e8 - 2.0]]), NumericalError,
                             "potential residual * exceeds 1e-10"),
        "m-not-mu-V": R(_generator(L=DP3.L, m=[1.0, 2.0, 1.0]), ChainError, "m is not mu V for any nonnegative mu"),
    },
    "chain.build_dual": {
        "mu-misses-a-state": R(lambda: build_dual(ChainSpec(q=np.ones(2), pi=np.zeros((2, 2)), mu=[1.0, 0.0])),
                               ChainError, "reference measure vanishes at states [1]; unreachable from supp(mu)"),
    },
    "chain.mass_gap": {
        "rounds-below-zero": R(lambda: mass_gap(dual_pair_from_generator(GAPLESS, np.ones(3))), NumericalError,
                               "mass gap * is not positive; strict submarkovianity is violated"),
    },
    "chain.trace_chain": {
        "empty": R(lambda: trace_chain(DP4, []), ChainError, "keep must be a nonempty set of states"),
        "singular-interior": R(lambda: trace_chain(DP4, [0, 3]), NumericalError,
                               "interior block of the generator is singular: Singular matrix", _failing("solve")),
    },
    "chain.nchain": {"empty": R(lambda: nchain(0), ChainError, "n must be at least 1")},
    "chain.random_chain": {"empty": R(lambda: random_chain(0, rng_stream(1, "x")), ChainError, "n must be at least 1")},
    "functionals.MonomialField.__init__": {
        f"exponent-{bad}": R(lambda b=bad: MonomialField([b, 0]), ValueError, "exponents must be integers from 0 to 64")
        for bad in (-1, 0.5, np.nan, np.inf, 65)
    },
    "harness.trace_suite": {
        "one-state": R(lambda: trace_suite(build_dual(nchain(1)), seed=0), ValueError,
                       "tracing needs at least 2 states: a 1-state chain has no proper subset"),
    },
    "reporting._finite": {
        "exact-relative-inf": R(lambda: exact_report("row", 1e270, np.inf, tol=1e-10, relative=True), NumericalError,
                                "row row is not finite: 1e+270, inf"),
        "exact-nan": R(lambda: exact_report("row", np.nan, 0.0, tol=1e-10), NumericalError,
                       "row row is not finite: nan, 0"),
        "info-inf": R(lambda: info_report("row", -np.inf), NumericalError, "row row is not finite: -inf"),
    },
    "paths._walk": {
        # 1000 expected sojourns pass the up-front check at a bound of 2000, and about 13% of
        # paths outlive it, so the bound in the walk itself raises
        "past-its-bound": R(lambda: occupation_batch(SLOW_KILL, 0, 200, seed=1), NumericalError,
                            "path did not terminate; jump matrix too close to stochastic",
                            lambda mp: mp.setattr(paths, "MAX_JUMPS", 2000)),
    },
    "paths._refuse_over_budget": {
        name: R(call, NumericalError, "path did not terminate: 1000 expected sojourns from state 0 reach 50",
                lambda mp: mp.setattr(paths, "MAX_JUMPS", 50))
        for name, call in (
            ("occupation", lambda: occupation_batch(SLOW_KILL, 0, 200, seed=1)),
            ("bridge", lambda: bridge_values(SLOW_KILL, 0, 1, ProductField(), 200, seed=1)),
        )
    },
    "paths.occupation_batch": {
        "no-paths": R(lambda: occupation_batch(DP3, 0, 0, seed=1), ValueError, "count must be at least 1"),
    },
    "paths.bridge_targets": {
        "no-paths": R(lambda: bridge_targets(DP3, 0, [TARGET], 0, seed=1), ValueError, "count must be at least 1"),
        **{f"offsets-{s}": R(lambda s=s: bridge_targets(DP3, 0, [TARGET, (1, ProductField(), np.zeros(s))], 10, 1),
                             ValueError, "offsets must be (count, 3)") for s in ((10, 2), (9, 3))},
        "no-closed-form": R(lambda: bridge_targets(DP3, 0, [TARGET, (1, BumpField(np.zeros(3)), None)], 10, seed=1),
                            ValueError, "BumpField has no sojourn_integral"),
    },
    "hilbert.det2": {
        **{name: R(lambda t=t: det2(t), ValueError, "det2 takes a real operator with finite entries")
           for name, t in (("complex", [[1j]]), ("nan", [[np.nan]]), ("inf", [[1.0, np.inf], [0.0, 1.0]]))},
        "overflows": R(lambda: det2(np.diag([-800.0])), NumericalError,
                       "renormalised determinant leaves float range (it overflows: log modulus 806.7)"),
        "underflows": R(_gauss(A133 @ A133.T / 133, (A133 - A133.T) / 2.0), NumericalError,
                        "renormalised determinant leaves float range (it underflows: log modulus *)"),
    },
    "hilbert.gaussian_char_identities": {
        "dimensions": R(_gauss(np.eye(2), np.zeros((3, 3))), ValueError, "dimension mismatch between C, B, f1, f2"),
        **{name: R(_gauss(c, b), ValueError, "operator matrix has a non-finite entry")
           for name, c, b in (
               ("b-nan", np.zeros((2, 2)), np.array([[0.0, np.nan], [1.0, 0.0]])),
               ("c-nan", np.full((2, 2), np.nan), np.zeros((2, 2))),
               ("c-inf", np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros((2, 2))),
               ("b-inf", np.zeros((2, 2)), np.array([[0.0, -np.inf], [np.inf, 0.0]])))},
        "b-symmetric": R(_gauss(np.zeros((2, 2)), abs(SKEW)), ValueError, "matrix is not skew-symmetric"),
        "b-symmetric-nonneg": R(lambda: _gauss(*[random_symmetric_nonneg(3, rng_stream(66, "hilbert-tests"))] * 2)(),
                                ValueError, "matrix is not skew-symmetric"),
        "c-not-symmetric": R(_gauss(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros((2, 2))), ValueError,
                             "matrix is not symmetric"),
        "c-negative": R(_gauss(-np.eye(2), np.zeros((2, 2))), ValueError, "matrix has negative eigenvalue -1.000e+00"),
    },
    "hilbert.CircleDriftModel.__post_init__": {
        "epsilon-nan": R(lambda: circle_model(np.nan, {1: 0.5}), ValueError, "epsilon must be positive and finite"),
        "shapes": R(lambda: CircleDriftModel(1.0, np.array([1, -1]), np.array([0.5])), ValueError,
                    "ks and coeffs must be matching vectors"),
        "coefficient-nan": R(lambda: circle_model(1.0, {1: complex(np.nan, 0.0)}), ValueError,
                             "drift coefficients must be finite"),
        "duplicate-frequency": R(lambda: CircleDriftModel(1.0, np.array([1, 1, -1]), np.full(3, 0.5)), ValueError,
                                 "duplicate frequencies in drift coefficients"),
        "not-real": R(lambda: circle_model(1.0, {1: 0.5 + 0.2j, -1: 0.5 + 0.2j}), ValueError,
                      "drift is not real: coefficient at 1 must conjugate the one at -1"),
    },
    "hilbert.circle_model": {
        f"{k}": R(lambda k=k: circle_model(1.0, {k: 0.5}), ValueError, f"frequency {k} is outside ±(2**63 - 1)")
        for k in (10**20, -(2**63))
    },
    "hilbert.circle_B_matrix": {
        "below-bandwidth": R(lambda: circle_B_matrix(circle_model(0.7, {3: 0.3}), 2), ValueError,
                             "truncation K=2 is below the drift bandwidth 3"),
    },
    "hilbert.LevyModel.__post_init__": {
        "empty": R(lambda: LevyModel(a=[], b=[]), ValueError, "a and b must be matching nonempty vectors"),
        "a-nan": R(lambda: LevyModel(a=[np.nan, 1.0], b=[1.0, 1.0]), ValueError, "all a_k and b_k must be finite"),
        "b-nan": R(lambda: LevyModel(a=[1.0, 1.0], b=[np.nan, 1.0]), ValueError, "all a_k and b_k must be finite"),
        "a-zero": R(lambda: LevyModel(a=[1.0, 0.0], b=[1.0, 1.0]), ValueError, "all a_k must be positive"),
    },
    "hilbert.eta_kernel": {
        "unequal-chi": R(_eta(weights=()), ValueError, "chi_points and chi_weights must have equal length"),
        **{f"weight-{bad}": R(_eta(weights=(bad,)), ValueError, "chi weights must be finite and nonnegative")
           for bad in NON_FINITE},
        **{f"{name}-{bad}": R(_eta(**{name: (bad,) if name == "points" else bad}), ValueError,
                              "x, y and chi points must be finite")
           for name in ("x", "y", "points") for bad in NON_FINITE},
    },
    "twisted._chi_vector": {
        **{f"{name}-{case}": R(lambda f=f, v=v: f(DP3, np.array(v)), ValueError, "chi must be finite and nonnegative")
           for name, f in DAMPED.items() for case, v in BAD_CHI.items()},
        **{f"{name}-{case}": R(lambda f=f, v=v: f(DP3, v), ValueError,
                               f"chi must have length 3, got shape {(2,) * (name == 'mgf-stack') + np.shape(v)}")
           for name, f in DAMPED.items() for case, v in CHI_SHAPES.items()},
        **{f"mgf-stack-{s}": R(lambda s=s: mgf(DP3, np.ones(s)), ValueError, f"chi must have length 3, got shape {s}")
           for s in ((2, 3, 3), (0, 2))},
    },
    "twisted.green": {
        "singular": R(lambda: green(DP3), NumericalError, "damped resolvent is singular: Singular matrix",
                      _failing("solve")),
    },
    "twisted.mgf": {
        "negative-determinant": R(lambda: mgf(NOT_AN_M_MATRIX, None), NumericalError,
                                  "determinant lost positivity while evaluating Phi"),
    },
    "twisted.build_twisted": {
        "singular": R(lambda: build_twisted(DP3), NumericalError, "symmetric part is singular: Singular matrix",
                      _failing("solve")),
        "not-positive-definite": R(lambda: build_twisted(DP3), NumericalError,
                                   "base covariance is not positive definite", _failing("cholesky")),
    },
    "twisted.sample_twisted_batch": {
        "no-draws": R(lambda: sample_twisted_batch(build_twisted(DP3), 0, 1), ValueError, "count must be at least 1"),
    },
    "twisted.permanent": {
        "not-square": R(lambda: permanent(np.zeros((2, 3))), ValueError, "permanent needs a square matrix"),
        "15x15": R(lambda: permanent(np.zeros((15, 15))), ValueError,
                   "permanent limited to 14x14; Ryser is O(2^k k^2)"),
    },
    "twisted._points": {
        f"{f.__name__}-{count}-points": R(lambda f=f, count=count: f(DP4, [0] * count), ValueError,
                                          "between 1 and 8 points")
        for f in (q_moment, q_moment_oracle) for count in (0, 9)
    },
    "twisted.cm_grid": {
        "7-states": R(lambda: cm_grid(7), ValueError, "the monotonicity sweep takes at most 6 states; got 7"),
    },
    "twisted._cm_phi": {
        "slow-rates": R(lambda: complete_monotonicity_check(SLOW_RATES), NumericalError,
                        "Phi lost positivity on the difference grid",
                        lambda mp: warnings.simplefilter("ignore", RuntimeWarning)),
    },
    "modelio._read": {
        "missing-file": R(File(load_chain_spec, None), SpecFileError,
                          "cannot read */model.yaml: No such file or directory"),
        "not-utf8": R(File(load_chain_spec, b"states: 3\nq: [1.0, \xff]\n"), SpecFileError,
                      "line 2: not UTF-8 text: byte 0xff"),
    },
    "modelio._compose": {
        "syntax-error": R(File(load_chain_spec, "states: 3\nq: [1.0, 1.0\n"), SpecFileError,
                          "line 3: invalid document: *expected ',' or ']'*"),
        # libyaml counts the bytes of the accents, pyyaml the characters
        "control-character": R(File(load_chain_spec, "states: 3  # " + "é" * 12 + "\nq: [1.0,\x01 1.0]\n"),
                               SpecFileError, "line 2: unacceptable character #x0001"),
        # pyyaml's composer recurses once per level; libyaml's reads the 600 levels
        "nested-too-deeply": R(_chain_file("[1.0, 1.0, 1.0]", "[" * 600 + "1.0" + "]" * 600), SpecFileError,
                               "invalid document: nested too deeply",
                               lambda mp: mp.setattr(modelio, "LOADER", yaml.BaseLoader)),
        "empty": R(File(load_chain_spec, ""), SpecFileError, "line 1: empty document"),
    },
    "modelio._mapping": {
        "not-a-mapping": R(File(load_chain_spec, "- 3\n- [1.0]\n"), SpecFileError,
                           "line 1: chain spec must be a mapping"),
        "unknown-field": R(File(load_chain_spec, CHAIN_FILE + "extra: 1\n"), SpecFileError,
                           "line 8: unknown field 'extra'"),
        "duplicate-field": R(File(load_chain_spec, CHAIN_FILE + "q: [2.0, 2.0, 2.0]\n"), SpecFileError,
                             "line 8: duplicate field 'q'"),
        "missing-field": R(_chain_file("mu: [1.0, 0.0, 0.0]\n", ""), SpecFileError, "line 1: missing field 'mu'"),
    },
    "modelio._scalar": {
        "field-name": R(File(load_chain_spec, CHAIN_FILE + "? [q, mu]\n: 1\n"), SpecFileError,
                        "line 8: field name must be a scalar"),
        "pi-nested-list": R(_chain_file("  - [0.0, 0.0, 1.0]\n", "  - - 0.0\n    - [0.5, 0.5]\n    - 1.0\n"),
                            SpecFileError, "line 6: pi row 1 entry must be a scalar"),
        "fractional-states": R(_chain_file("states: 3", "states: 2.5"), SpecFileError,
                               "line 1: states must be an integer, got '2.5'"),
        "pi-text": R(_chain_file("  - [0.0, 0.0, 1.0]\n", "  - - 0.0\n    - abc\n    - 1.0\n"), SpecFileError,
                     "line 6: pi row 1 entry must be a float, got 'abc'"),
        "b_hat-text": R(File(load_circle_model, CIRCLE_FILE + "  - - 2\n    - 0.1x\n    - 0.0\n"), SpecFileError,
                        "line 5: b_hat triple entry must be a float, got '0.1x'"),
        "rate-inf": R(_chain_file("q: [1.0, 1.0, 1.0]", "q: [1.0, inf, 1.0]"), SpecFileError,
                      "line 2: q entry must be finite, got 'inf'"),
        "frequency-inf": R(File(load_circle_model, "epsilon: 1.0\nb_hat: [[inf, 0.5, 0.0]]\n"), SpecFileError,
                           "line 2: b_hat triple entry must be finite, got 'inf'"),
        "frequency-nan": R(File(load_circle_model, CIRCLE_FILE.replace("[1,", "[nan,")), SpecFileError,
                           "line 3: b_hat triple entry must be finite, got 'nan'"),
        "epsilon-nan": R(File(load_circle_model, "epsilon: nan\nb_hat: []\n"), SpecFileError,
                         "line 1: epsilon must be finite, got 'nan'"),
        "levy-a-nan": R(File(load_levy_model, LEVY_FILE.replace("4.0", "nan")), SpecFileError,
                        "line 1: a entry must be finite, got 'nan'"),
        "levy-b-nan": R(File(load_levy_model, LEVY_FILE.replace("b: [1.0", "b: [nan")), SpecFileError,
                        "line 2: b entry must be finite, got 'nan'"),
    },
    "modelio._sequence": {
        "q-scalar": R(_chain_file("q: [1.0, 1.0, 1.0]", "q: 1.0"), SpecFileError, "line 2: q must be a sequence"),
    },
    "modelio._float_list": {
        "pi-row-short": R(_chain_file("  - [0.0, 0.0, 1.0]", "  - [0.0, 0.0]"), SpecFileError,
                          "line 5: pi row 1 must have 3 entries, got 2"),
        "q-short": R(_chain_file("q: [1.0, 1.0, 1.0]", "q: [1.0, 1.0]"), SpecFileError,
                     "line 2: q must have 3 entries, got 2"),
        "levy-b-short": R(File(load_levy_model, LEVY_FILE.replace("b: [1.0, 2.0]", "b: [1.0]")), SpecFileError,
                          "line 2: b must have 2 entries, got 1"),
    },
    # `_flat_chain` catches it and leaves the text to the node walk, so no file ends in it
    "modelio._flat_floats": {"not-a-list": R(lambda: modelio._flat_floats(" 1.0"), ValueError, "1.0")},
    "modelio.load_chain_spec": {
        "no-states": R(_chain_file("states: 3", "states: 0"), SpecFileError, "line 1: states must be at least 1"),
        "pi-short": R(_chain_file("  - [0.0, 0.0, 0.0]\n", ""), SpecFileError, "line 4: pi must have 3 rows, got 2"),
        "negative-rate": R(_chain_file("q: [1.0, 1.0, 1.0]", "q: [1.0, -1.0, 1.0]"), SpecFileError,
                           "line 1: all jump rates q must be positive"),
    },
    "modelio.load_circle_model": {
        "epsilon-negative": R(File(load_circle_model, "epsilon: -1\nb_hat: []\n"), SpecFileError,
                              "line 1: epsilon must be positive"),
        "fractional-frequency": R(File(load_circle_model, CIRCLE_FILE.replace("[1,", "[1.5,")), SpecFileError,
                                  "line 3: frequency must be an integer"),
        "frequency-beyond-int64": R(File(load_circle_model, CIRCLE_FILE.replace("[1,", "[1e20,")), SpecFileError,
                                    "line 3: frequency 100000000000000000000 is outside ±(2**63 - 1)"),
        "duplicate-frequency": R(File(load_circle_model, CIRCLE_FILE + "  - [1, 0.5, 0.0]\n"), SpecFileError,
                                 "line 4: duplicate frequency 1"),
        "not-conjugate": R(File(load_circle_model, CIRCLE_FILE + "  - [-1, 0.5, 0.2]\n"), SpecFileError,
                           "line 3: drift is not real: coefficient at 1 must conjugate the one at -1"),
    },
    "modelio.load_levy_model": {
        "a-zero": R(File(load_levy_model, LEVY_FILE.replace("a: [1.0", "a: [0.0")), SpecFileError,
                    "line 1: all a_k must be positive"),
    },
}
ENTRIES = {f"{where}:{name}": (where, entry) for where, group in REFUSALS.items() for name, entry in group.items()}


@functools.cache
def _raise_statements(module) -> dict:
    """{(first line, last line): module.qualname of its function} over the raise statements of ``module``."""
    found = {}

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found[child.lineno, child.end_lineno] = ".".join([module, *names])
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, names + [child.name] if named else names)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), [])
    return found


def _runs(call, patch, tmp_path) -> list:
    """(call, patch) of each run of an entry: a ``File``'s text is written and read under each shipped loader."""
    if not isinstance(call, File):
        return [(call, patch)]
    load, text = call
    path = tmp_path / "model.yaml"
    path.unlink(missing_ok=True)
    if text is not None:
        path.write_bytes(text.encode() if isinstance(text, str) else text)
    pins = [lambda mp, loader=loader: mp.setattr(modelio, "LOADER", loader) for loader in SHIPPED]
    return [(functools.partial(load, path), pin) for pin in ([patch] if patch else pins)]


def _reached(entry, monkeypatch, tmp_path) -> tuple[str, int]:
    """Run ``entry`` and check its class and message; return the function and first line of the raise it ends in."""
    reached = set()
    for call, patch in _runs(entry.call, entry.patch, tmp_path):
        with warnings.catch_warnings(), pytest.raises(Exception) as info:
            if patch:
                patch(monkeypatch)
            call()
        monkeypatch.undo()
        assert info.type is entry.error and entry.error in EXITING, repr(info.value)
        assert re.fullmatch(".*".join(map(re.escape, entry.message.split("*"))), str(info.value)), str(info.value)
        *_, (frame, line) = (f for f in traceback.walk_tb(info.tb) if Path(f[0].f_code.co_filename).parent == SRC)
        module = Path(frame.f_code.co_filename).stem
        spans = [(where, first) for (first, last), where in _raise_statements(module).items() if first <= line <= last]
        assert spans, f"{module}.py:{line} is not a raise statement"
        reached.add(spans[0])
    assert len(reached) == 1, f"the loaders end in different raises: {reached}"
    return reached.pop()


@pytest.mark.parametrize("name", ENTRIES)
def test_each_entry_raises_its_class_and_message_from_its_function(name, monkeypatch, tmp_path):
    where, entry = ENTRIES[name]
    assert _reached(entry, monkeypatch, tmp_path)[0] == where


def test_the_entries_reach_exactly_the_raise_statements_of_the_modules(monkeypatch, tmp_path):
    reached = {_reached(entry, monkeypatch, tmp_path) for _, entry in ENTRIES.values()}
    every = {(where, first) for m in ("__init__", *MODULES) for (first, _), where in _raise_statements(m).items()}
    assert reached == every


def test_the_inputs_the_entries_spoil_are_accepted(tmp_path, monkeypatch):
    assert ChainSpec(**CHAIN).n == dual_pair_from_generator(**GENERATOR).n == 2
    assert len(_gauss(np.eye(2), SKEW)()) == 3
    for load, text in ((load_chain_spec, CHAIN_FILE), (load_circle_model, CIRCLE_FILE), (load_levy_model, LEVY_FILE)):
        for call, patch in _runs(File(load, text), None, tmp_path):
            patch(monkeypatch)
            call()
            monkeypatch.undo()
