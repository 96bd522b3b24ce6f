import csv
import math
import re
import shlex
import time
import warnings
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple
from unittest.mock import Mock

import numpy as np
import pytest
import yaml

from twistlab import cli, modelio, paths
from twistlab.chain import NumericalError, build_dual
from twistlab.cli import COMMANDS, _parser, main
from twistlab.modelio import load_chain_spec
from twistlab.reporting import VerificationReport, count_failures
from twistlab.twisted import q_moment, q_moment_oracle

from test_work import counting

CHAIN = """\
states: 3
q: [1.0, 1.0, 1.0]
pi:
  - [0.0, 0.6, 0.1]
  - [0.2, 0.0, 0.5]
  - [0.1, 0.3, 0.0]
mu: [0.5, 0.3, 0.2]
"""

ONE_STATE = "states: 1\nq: [1.0]\npi: [[0.0]]\nmu: [1.0]\n"

# a path survives each jump with probability 0.999: about 1000 sojourns
SLOW_KILL = """\
states: 2
q: [1.0, 1.0]
pi:
  - [0.0, 0.999]
  - [0.999, 0.0]
mu: [0.5, 0.5]
"""

# each jump survives with probability 0.999999: 1e6 expected sojourns per
# path, which reaches paths.MAX_JUMPS
NEAR_STOCHASTIC = SLOW_KILL.replace("0.999", "0.999999")

PIN_CHAIN = """\
states: 4
q: [1.0, 2.0, 1.5, 0.8]
pi:
  - [0.0, 0.5, 0.2, 0.1]
  - [0.3, 0.0, 0.4, 0.1]
  - [0.1, 0.2, 0.0, 0.5]
  - [0.2, 0.1, 0.3, 0.0]
mu: [0.4, 0.3, 0.2, 0.1]
"""

PIN_CIRCLE = "epsilon: 1.0\nb_hat:\n  - [1, 0.4, 0.1]\n  - [2, 0.1, -0.2]\n"

PIN_LEVY = (
    "a: [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0, 81.0, 100.0]\n"
    "b: [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, -10.0]\n"
)

# Reports of fixed configurations, pinned row by row.  A change to a random
# stream, a batch layout or a sampling method must show up as an edit here.
PINNED = [
    (
        ["example-chain", "--n", "3", "--seed", "5", "--samples", "10000"],
        """\
example_n3_mgf_factorisation,exact,1.62806010103e-16,0,0,0,1.62806010103e-16,1,0.000
example_n3_moment_k1,mc,0.95590063962,1,0.032329667513,0,1.36405239435,1,0.000
example_n3_moment_k2,mc,1.82137955545,2,0.264007293735,0,0.984680068475,1,0.000
example_n3_moment_k3,mc,6.68148151181,6,2.72660179257,0,0.861169727031,1,0.000
example_n3_size_biased_m1,mc,1.91239087072,2,0.218899411773,0,0.400225512587,1,0.000
example_n3_size_biased_m2,mc,7.06552602786,6,2.67301416081,0,0.39862341303,1,0.000
example_n3_size_biased_m3,mc,61.166694467,24,33.7704451966,0,1.10056868515,1,0.000
example_n3_bridge_local_time_m1,mc,1.02001986459,1,0.0230168783066,0,0.869790608369,1,0.000
example_n3_bridge_local_time_m2,mc,2.05895525428,2,0.0974623974268,0,0.604902565856,1,0.000
example_n3_bridge_local_time_m3,mc,6.33767761728,6,0.638042345553,0,0.529240135286,1,0.000
example_n3_mass_gap_vs_closed_form,exact,0.292893218813,0.292893218813,0,0,0,1,0.000
example_n3_occupation_f1_exact,exact,1,1,0,0,0,1,0.000
example_n3_occupation_exp_exact,exact,0.155058070875,0.155058070875,0,0,0,1,0.000
example_n3_occupation_exp_mc,mc,0.15627080583,0.160032541202,0.00225840781876,0.00291775769504,1.24815968943,1,0.000
""",
    ),
    (
        ["verify-iso", "--input", "{chain}", "--seed", "3", "--samples", "20000"],
        """\
"bridge_f1_exact[1,2]",exact,0.939635535308,0.939635535308,0,0,1.11022302463e-16,1,0.000
"bridge_exp_exact[1,2]",exact,0.0199746452754,0.0199746452754,0,0,0,1,0.000
"bridge_exp_mc[1,2]",mc,0.0200733297391,0.0199094015538,0.000372733092073,0.000370426973777,1.44081456874,1,0.000
"bridge_product_mc[1,2]",mc,0.022760107053,0.0228701308676,0.000314385565694,0.000341580768552,1.37653182024,1,0.000
occupation_f1_exact[1],exact,1.48490566038,1.48490566038,0,0,0,1,0.000
occupation_exp_exact[1],exact,0.0648748634614,0.0648748634614,0,0,0,1,0.000
occupation_product_mc[1],mc,0.0616232547607,0.062049216729,0.000476027005221,0.00064267779027,0.64529816954,1,0.000
"field_correlation_vs_green[1,2]",mc,0.925443838039,0.939635535308,0.00933386003214,0,1.52045319083,1,0.000
""",
    ),
    (
        ["verify-q", "--input", "{chain}", "--seed", "4", "--samples", "20000"],
        """\
positivity_exp0_vs_mgf,mc,0.0866863406485,0.0861629471116,0.000856709974148,0,0.647254708982,1,0.000
positivity_exp1_vs_mgf,mc,0.196864047728,0.195289857877,0.00134842383876,0,1.16742956183,1,0.000
positivity_bump_nonneg,mc,0.0562311018097,0,0.00111056853463,0,0.387571315809,1,0.000
positivity_moment_single_vs_permanent,mc,1.50360064644,1.5190397351,0.0107722921507,0,1.4332222374,1,0.000
positivity_moment_pair_vs_permanent,mc,4.36298437508,4.40988964044,0.072064643571,0,0.926673719455,1,0.000
cm_full_sweep_clean,exact,0,0,0,0,0,1,0.000
q_moment_vs_derivative_oracle_k1,exact,1.48490566038,1.48490566038,0,0,0,1,0.000
q_moment_vs_derivative_oracle_k2,exact,2.9420061227,2.9420061227,0,0,0,1,0.000
q_moment_vs_derivative_oracle_k3,exact,10.4521418672,10.4521418672,0,0,8.881784197e-15,1,0.000
""",
    ),
    (
        ["trace-check", "--input", "{chain}", "--seed", "2"],
        """\
trace_consistency[|Y|=3],exact,2.22044604925e-16,0,0,0,2.22044604925e-16,1,0.000
trace_consistency[|Y|=3],exact,2.22044604925e-16,0,0,0,2.22044604925e-16,1,0.000
trace_consistency[|Y|=2],exact,2.22044604925e-16,0,0,0,2.22044604925e-16,1,0.000
""",
    ),
    (
        ["det2-check", "--dim", "4", "--seed", "3", "--samples", "20000"],
        """\
det2_vs_det_exp_trace,exact,1.26554291865,1.26554291865,0,0,1.33226762955e-15,1,0.000
det2_skew_vs_sqrt_gram,exact,1.91936671083,1.91936671083,0,0,4.4408920985e-16,1,0.000
char_skew_vs_det2,mc,0.520950210728,0.521005180697,0.004053059432,0,0.431029633525,1,0.000
char_complex_vs_det2,mc,0.0469971217399,0.0477354023035,0.000711550478166,0,1.03756597222,1,0.000
pairing_vs_resolvent,mc,-1.21099543452,-1.24371051742,0.0207427800116,0,1.5771792829,1,0.000
""",
    ),
    (
        ["circle-check", "--input", "{circle}", "--k-max", "32"],
        """\
circle_frobenius_vs_frequency_sum,exact,0.666150009601,0.666150009601,0,0,2.22044604925e-16,1,0.000
circle_hs_partial_sum,info,0.852193688379,0.852193688379,0,0,0,1,0.000
circle_kernel_vs_closed_form,exact,0.969103202824,0.967514578769,0,0,0.0015886240547,1,0.000
""",
    ),
    (
        ["mgf-check", "--input", "{chain}", "--seed", "2"],
        """\
logdet_derivative_vs_trace,exact,1.11022302463e-15,0,0,0,1.11022302463e-15,1,0.000
green_monotone_in_chi,exact,0,0,0,0,0,1,0.000
""",
    ),
    (
        ["mass-gap", "--input", "{chain}", "--seed", "3"],
        """\
mass_gap,info,0.286046579537,0.286046579537,0,0,0,1,0.000
energy_lower_bound_margin,exact,0,0,0,0,0,1,0.000
""",
    ),
    (
        ["levy-check", "--input", "{levy}"],
        """\
levy_partial_sum,info,1.54976773117,1.54976773117,0,0,0,1,0.000
""",
    ),
]



def test_example_chain_runs_clean(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["example-chain", "--n", "3", "--seed", "1", "--samples", "20000", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("name,mode,lhs,rhs,se_lhs,se_rhs,z,pass,seconds")
    assert "example_n3_mgf_factorisation" in text
    assert all(line.split(",")[7] == "1" for line in text.splitlines()[1:])


def test_reports_byte_identical_for_same_config(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["example-chain", "--n", "3", "--seed", "5", "--samples", "10000", "--out", str(a)]) == 0
    assert main(["example-chain", "--n", "3", "--seed", "5", "--samples", "10000", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, expected",
    PINNED,
    ids=[
        "example-chain",
        "verify-iso",
        "verify-q",
        "trace-check",
        "det2-check",
        "circle-check",
        "mgf-check",
        "mass-gap",
        "levy-check",
    ],
)
def test_same_seed_reports_are_pinned(argv, expected, tmp_path, capsys):
    chain = tmp_path / "pin.yaml"
    chain.write_text(PIN_CHAIN)
    circle = tmp_path / "circle.yaml"
    circle.write_text(PIN_CIRCLE)
    levy = tmp_path / "levy.yaml"
    levy.write_text(PIN_LEVY)
    out = tmp_path / "report.csv"
    assert main([a.format(chain=chain, circle=circle, levy=levy) for a in argv] + ["--out", str(out)]) == 0
    # the pin is the bytes, line for line, so no value can drift inside a tolerance
    header = "name,mode,lhs,rhs,se_lhs,se_rhs,z,pass,seconds"
    assert out.read_text().splitlines() == [header] + expected.splitlines()


# Why a run exits as it does, in the order of the list in cli's module docstring:
# the count of failing rows, then the causes of exit 2, then those of exit 3.
CAUSES = ("failing rows", "parse error", "chain rejected", "suite refusal", "unread flag", "integer below 1",
          "unwritable out", "numerical failure", "out of memory", "non-finite row")

ARGPARSE = "unread flag"  # the one cause on which argparse exits, not main


def _uniform_chain(n):
    rows = "\n".join("  - [" + ", ".join("0.0" if i == j else "0.1" for j in range(n)) + "]" for i in range(n))
    return f"states: {n}\nq: [{', '.join(['1.0'] * n)}]\npi:\n{rows}\nmu: [{', '.join([repr(1 / n)] * n)}]\n"


def _levy(a, b):
    return f"a: [{', '.join(map(str, a))}]\nb: [{', '.join(map(str, b))}]\n"


LEVY_K = np.arange(1.0, 201.0)
CIRCLE = "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n"

# The input files of `EXITS`, by the placeholder that names them in an argv.
# A run refused by argparse reads none.
INPUTS = {
    "one": ONE_STATE,
    "chain": CHAIN,
    "six": _uniform_chain(6),
    "seven": _uniform_chain(7),
    "slow": SLOW_KILL,
    "near": NEAR_STOCHASTIC,
    "circle": CIRCLE,
    "far": CIRCLE.replace("[1,", "[60,"),
    "bandwidth_3": CIRCLE + "  - [3, 0.1, 0.0]\n",
    "huge": CIRCLE + "  - [1e20, 0.5, 0.0]\n",
    "circle_nan": "epsilon: 1e300\nb_hat: [[1, 1e300, 0]]\n",
    "levy": _levy(LEVY_K**2, LEVY_K),
    "levy_divergent": _levy(LEVY_K, LEVY_K),
    "levy_empty": "a: []\nb: []\n",
    "levy_overflow": "a: [1e-300]\nb: [1e300]\n",
    "short_q": "states: 2\nq: [1.0]\npi: [[0,0],[0,0]]\nmu: [1, 0]\n",
    "ctrl": b"states: 2\nq: [1.0,\x01 1.0]\n",
    "not_utf8": b"states: 2\nq: [1.0, \xff]\n",
    "fractional": "states: 2.5\nq: [1.0, 1.0]\npi: [[0, 0], [0, 0]]\nmu: [1.0, 0.0]\n",
    "inf": CHAIN.replace("q: [1.0, 1.0, 1.0]", "q: [1.0, inf, 1.0]"),
    # rows within the row-sum and reach checks, spectral radius 1 - 7.5e-13
    "radius": "states: 2\nq: [1.0, 1.0]\npi: [[0.5, 0.5000000000005], [0.5, 0.499999999998]]\nmu: [1.0, 0.0]\n",
    "nested": "states: 1\nq: " + "[" * 600 + "1.0" + "]" * 600 + "\npi: [[0.0]]\nmu: [1.0]\n",
    # a valid spec whose chain cannot reach state 1 from supp(mu)
    "mu_misses": "states: 2\nq: [1.0, 1.0]\npi: [[0, 0], [0.5, 0]]\nmu: [1.0, 0.0]\n",
}


def _draws(mp):  # records each twisted sample the suites draw, with the counting wrapper of `WORK`
    return counting(mp, ["sample_twisted_batch"])


def _quiet(mp):  # numpy warns as the row's value overflows; the run exits 3 on that row
    warnings.simplefilter("ignore", RuntimeWarning)


def _raising(suite, exc):  # cli's `suite` raises exc in place of running
    return lambda mp: mp.setattr(cli, suite, Mock(side_effect=exc))


class Run(NamedTuple):
    """One CLI run and how it must exit.

    ``argv`` names its input files as ``{key}`` of `INPUTS`, and the test's
    directory as ``{dir}``.  ``line`` is the one stderr line of an exit 2 or
    3 (argparse's last), or for failing rows the first stdout line up to its values.
    """

    argv: str
    cause: str
    code: int
    line: str
    patch: Callable | None = None  # patch(monkeypatch), whose value `check` gets
    check: Callable | None = None  # check(report path, seconds, patched) -> bool


def _pass(row, mode="exact"):
    return f"[PASS] {row}: mode={mode}"


UNREAD = "twistlab: error: unrecognized arguments: "
MU_MISSES = "error: reference measure vanishes at states [1]; unreachable from supp(mu)"
# numpy's message for circle-check --k-max 1000000, raised here without allocating
OOM = "Unable to allocate 29.1 TiB for an array with shape (4000004000001,) and data type float64"

EXITS = {
    "mass-gap-prints-its-value": Run("mass-gap --input {one}", "failing rows", 0, "1.0"),
    "mgf-check": Run("mgf-check --input {chain}", "failing rows", 0, _pass("logdet_derivative_vs_trace")),
    "trace-check": Run("trace-check --input {chain} --seed 3", "failing rows", 0, _pass("trace_consistency[|Y|=1]")),
    "verify-iso": Run(
        "verify-iso --input {chain} --seed 2 --samples 30000", "failing rows", 0, _pass("bridge_f1_exact[2,1]")),
    "verify-q": Run(
        "verify-q --input {chain} --seed 2 --samples 30000", "failing rows", 0, _pass("positivity_exp0_vs_mgf", "mc")),
    "verify-q-at-the-sweep-limit": Run(
        "verify-q --input {six} --samples 2000", "failing rows", 0, _pass("positivity_exp0_vs_mgf", "mc"),
        check=lambda out, *_: "cm_full_sweep_clean,exact,0," in out.read_text()),
    "det2-check": Run("det2-check --dim 6 --seed 7 --samples 50000", "failing rows", 0, _pass("det2_vs_det_exp_trace")),
    "circle-check": Run(
        "circle-check --input {circle} --k-max 128", "failing rows", 0, _pass("circle_frobenius_vs_frequency_sum")),
    # finitely many drift frequencies give a finite square sum, so no truncation may fail
    "circle-check-k-max-4": Run(
        "circle-check --input {circle} --k-max 4", "failing rows", 0, _pass("circle_frobenius_vs_frequency_sum")),
    "circle-check-far-frequency": Run(
        "circle-check --input {far} --k-max 64", "failing rows", 0, _pass("circle_frobenius_vs_frequency_sum")),
    "levy-check": Run("levy-check --input {levy}", "failing rows", 0, _pass("levy_partial_sum", "info")),
    "levy-check-divergent": Run(  # the sum is recorded; no verdict
        "levy-check --input {levy_divergent}", "failing rows", 0, _pass("levy_partial_sum", "info")),
    # one draw gives each of the three MC rows an SE of 0 and z = inf, so they fail; an exit
    # code of 1 for any failing row (ROADMAP item 11) changes exactly this entry
    "det2-check-one-draw": Run("det2-check --dim 2 --samples 1", "failing rows", 3, _pass("det2_vs_det_exp_trace")),
    "short-q": Run("mass-gap --input {short_q}", "parse error", 2, "error: line 2: q must have 2 entries, got 1"),
    "control-character": Run(
        "mass-gap --input {ctrl}", "parse error", 2, "error: line 2: unacceptable character #x0001"),
    "not-utf8": Run("mass-gap --input {not_utf8}", "parse error", 2, "error: line 2: not UTF-8 text: byte 0xff"),
    "fractional-states": Run(
        "mass-gap --input {fractional}", "parse error", 2, "error: line 1: states must be an integer, got '2.5'"),
    "missing-file": Run(
        "mass-gap --input {dir}/chain.yaml", "parse error", 2,
        "error: cannot read {dir}/chain.yaml: No such file or directory"),
    "input-inf": Run("mass-gap --input {inf}", "parse error", 2, "error: line 2: q entry must be finite, got 'inf'"),
    "radius-at-bound": Run(
        "mass-gap --input {radius}", "parse error", 2,
        "error: line 1: spectral radius of pi is 0.999999999999; must be < 1"),
    "frequency-beyond-int64": Run(
        "circle-check --input {huge}", "parse error", 2,
        "error: line 4: frequency 100000000000000000000 is outside ±(2**63 - 1)"),
    "levy-empty": Run(
        "levy-check --input {levy_empty}", "parse error", 2,
        "error: line 1: a and b must be matching nonempty vectors"),
    "nested-deeply": Run("mass-gap --input {nested}", "parse error", 2, "error: line 2: q entry must be a scalar"),
    "nested-deeply-base-loader": Run(
        "mass-gap --input {nested}", "parse error", 2, "error: invalid document: nested too deeply",
        lambda mp: mp.setattr(modelio, "LOADER", yaml.BaseLoader)),
    "mu-misses-a-state": Run("mass-gap --input {mu_misses}", "chain rejected", 2, MU_MISSES),
    "verify-iso-mu-misses-a-state": Run("verify-iso --input {mu_misses}", "chain rejected", 2, MU_MISSES),
    "k-max-below-bandwidth": Run(
        "circle-check --input {bandwidth_3} --k-max 1", "suite refusal", 2,
        "error: truncation K=1 is below the drift bandwidth 3"),
    "verify-q-beyond-the-sweep-limit": Run(
        "verify-q --input {seven} --samples 2000", "suite refusal", 2,
        "error: the monotonicity sweep takes at most 6 states; got 7",
        _draws, lambda out, seconds, draws: draws == []),
    "trace-check-one-state": Run(
        "trace-check --input {one}", "suite refusal", 2,
        "error: tracing needs at least 2 states: a 1-state chain has no proper subset"),
    "mass-gap-samples": Run("mass-gap --input {one} --samples 10", ARGPARSE, 2, UNREAD + "--samples 10"),
    "levy-check-seed": Run("levy-check --input {levy} --seed 3", ARGPARSE, 2, UNREAD + "--seed 3"),
    # no command has a tolerance flag: every row fixes its own bound
    "example-chain-tol": Run("example-chain --tol 1e-9", ARGPARSE, 2, UNREAD + "--tol 1e-9"),
    "verify-iso-tol": Run("verify-iso --input {one} --tol 1e-9", ARGPARSE, 2, UNREAD + "--tol 1e-9"),
    "trace-check-tol": Run("trace-check --input {one} --tol 1e-9", ARGPARSE, 2, UNREAD + "--tol 1e-9"),
    "det2-check-tol": Run("det2-check --tol 1e-9", ARGPARSE, 2, UNREAD + "--tol 1e-9"),
    "circle-check-tol": Run("circle-check --input {circle} --tol 1e-9", ARGPARSE, 2, UNREAD + "--tol 1e-9"),
    "seed-zero": Run("mass-gap --input {one} --seed 0", "integer below 1", 2, "error: --seed must be at least 1"),
    "n-zero": Run("example-chain --n 0", "integer below 1", 2, "error: --n must be at least 1"),
    "dim-zero": Run("det2-check --dim 0", "integer below 1", 2, "error: --dim must be at least 1"),
    "unwritable-report": Run(
        "mgf-check --input {chain} --out {dir}/nodir/x.csv", "unwritable out", 2,
        "error: cannot write {dir}/nodir/x.csv: No such file or directory"),
    # the skew operator's det2 grows like a power of its eigenvalues of order sqrt(dim): it overflows at dim 700
    "det2-out-of-float-range": Run(
        "det2-check --dim 700 --seed 1 --samples 100", "numerical failure", 3,
        "numerical failure: renormalised determinant leaves float range (it overflows: log modulus 1736.7)"),
    "numerical-error": Run(
        "mgf-check --input {one}", "numerical failure", 3, "numerical failure: synthetic singularity",
        _raising("mgf_suite", NumericalError("synthetic singularity"))),
    "linalg-error-though-a-value-error": Run(
        "mgf-check --input {one}", "numerical failure", 3, "numerical failure: Singular matrix",
        _raising("mgf_suite", np.linalg.LinAlgError("Singular matrix")),
        lambda *_: issubclass(np.linalg.LinAlgError, ValueError)),
    "walk-over-a-lowered-bound": Run(
        "verify-iso --input {slow} --samples 200", "numerical failure", 3,
        "numerical failure: path did not terminate: 1000 expected sojourns from state 0 reach 50",
        lambda mp: mp.setattr(paths, "MAX_JUMPS", 50)),
    # refused before any draw, well inside 5 s
    "walk-over-budget": Run(
        "verify-iso --input {near} --samples 100000", "numerical failure", 3,
        "numerical failure: path did not terminate: 1e+06 expected sojourns from state 0 reach 1000000",
        _draws, lambda out, seconds, draws: seconds < 5.0 and draws == []),
    "out-of-memory": Run(
        "circle-check --input {circle} --k-max 1000000", "out of memory", 3, f"numerical failure: out of memory: {OOM}",
        _raising("circle_suite", MemoryError(OOM))),
    "out-of-memory-bare": Run(
        "circle-check --input {circle} --k-max 1000000", "out of memory", 3,
        "numerical failure: out of memory: allocation failed", _raising("circle_suite", MemoryError())),
    "levy-sum-overflows": Run(
        "levy-check --input {levy_overflow}", "non-finite row", 3,
        "numerical failure: row levy_partial_sum is not finite: inf", _quiet),
    "circle-sums-nan": Run(
        "circle-check --k-max 4 --input {circle_nan}", "non-finite row", 3,
        "numerical failure: row circle_frobenius_vs_frequency_sum is not finite: 84, nan", _quiet),
}


@pytest.mark.parametrize("name", EXITS)
def test_each_run_exits_with_its_code_and_line(name, tmp_path, monkeypatch, capsys):
    run = EXITS[name]
    files = {key: tmp_path / f"{key}.yaml" for key in INPUTS if f"{{{key}}}" in run.argv}
    for key, path in files.items():
        path.write_bytes(INPUTS[key] if isinstance(INPUTS[key], bytes) else INPUTS[key].encode())
    files["dir"] = tmp_path
    argv = [a.format(**files) for a in run.argv.split()]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "report.csv")]
    out = Path(argv[argv.index("--out") + 1])
    patched = run.patch and run.patch(monkeypatch)
    started = time.perf_counter()
    try:
        code, by_main = main(argv), True
    except SystemExit as exc:
        code, by_main = exc.code, False
    seconds = time.perf_counter() - started
    stdout, stderr = capsys.readouterr()
    assert (code, by_main) == (run.code, run.cause != ARGPARSE)
    if run.cause == "failing rows":
        assert stderr == "" and out.exists()
        assert stdout.splitlines()[0].split(" lhs=")[0] == run.line
    else:
        lines = stderr.splitlines(keepends=True)
        assert (lines[-1:] if run.cause == ARGPARSE else lines) == [run.line.format(**files) + "\n"]
        assert not out.exists()
    assert run.check is None or run.check(out, seconds, patched)


def test_every_command_returns_a_refusal_and_every_cause_has_a_run():
    refused = {r.argv.split()[0] for r in EXITS.values() if r.code == 2 and r.cause not in (CAUSES[0], ARGPARSE)}
    assert refused == set(COMMANDS)  # main's own exit 2, not argparse's
    assert {run.cause for run in EXITS.values()} == set(CAUSES)


@pytest.mark.parametrize(
    "argv, last_line",
    [
        ([], "twistlab: error: the following arguments are required: command"),
        (["--help"], "  -h, --help"),
        (["bogus", "--input", "x"], "twistlab: error: argument command: invalid choice: 'bogus' (choose from "),
        (["verify-iso", "--help"], "  --out OUT"),
        (["verify-iso", "--bogus"], "twistlab verify-iso: error: the following arguments are required: --input"),
        (["mass-gap", "--samples", "3", "--input", "x"], "twistlab: error: unrecognized arguments: --samples 3"),
        (["det2-check", "--dim", "x"], "twistlab det2-check: error: argument --dim: invalid int value: 'x'"),
    ],
    ids=["no-command", "help", "unknown-command", "command-help", "unknown-flag", "unread-flag", "bad-int"],
)
def test_one_command_parser_prints_what_the_full_one_does(argv, last_line, monkeypatch, capsys):
    def run():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, *capsys.readouterr()

    shipped = run()
    _, out, err = shipped
    assert (err or out).splitlines()[-1].startswith(last_line)
    full = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda *names: full())
    assert shipped == run()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"## Command line(.*?)\n## ", readme, re.S).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("twistlab ")]
    assert {shlex.split(line)[1] for line in lines} == set(COMMANDS)
    for line in lines:
        _parser().parse_args(shlex.split(line)[1:])
    # every flag the section names is one that some command accepts
    accepted = {"--out"} | {f"--{flag}" for flags, _ in COMMANDS.values() for flag in flags}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and named <= accepted, sorted(named - accepted)



def test_det2_rows_stay_finite_where_the_gram_determinant_overflows(tmp_path, capsys):
    # det(I + B B^T) passes 1.8e308 at dim 300 while its square root, det2(B), is 1.94e270
    out = tmp_path / "out.csv"
    # 10 draws are too few for the pairing_vs_resolvent row, which fails
    assert main(["det2-check", "--dim", "300", "--seed", "1", "--samples", "10", "--out", str(out)]) == 1
    rows = {row["name"]: row for row in csv.DictReader(out.read_text().splitlines())}
    for name in ("det2_vs_det_exp_trace", "det2_skew_vs_sqrt_gram"):
        assert math.isfinite(float(rows[name]["rhs"])) and rows[name]["pass"] == "1"
    assert float(rows["det2_skew_vs_sqrt_gram"]["rhs"]) > 1e270


def test_moment_oracle_stays_in_float_range_where_a_power_of_m_underflows(tmp_path, capsys):
    # m = [1e-300, 1]: m_0^3 is 0 in floats, while E[rho_0^3] is about 14.2
    path = tmp_path / "tiny_m.yaml"
    path.write_text("states: 2\nq: [1e300, 1.0]\npi: [[0, 0.5], [0.5, 0]]\nmu: [0.5, 0.5]\n")
    assert main(["verify-q", "--input", str(path)]) == 0
    dp = build_dual(load_chain_spec(path))
    for k in (1, 2, 3):
        assert q_moment_oracle(dp, [0] * k) == pytest.approx(q_moment(dp, [0] * k), rel=1e-12)



def test_failure_count_capped():
    rows = [
        VerificationReport(
            name=f"r{i}", mode="exact", lhs=1.0, rhs=0.0, se_lhs=0, se_rhs=0, z=1.0, passed=False
        )
        for i in range(300)
    ]
    assert count_failures(rows) == 125
