import argparse
import csv
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from twistlab.chain import build_dual
from twistlab.cli import COMMANDS, _parser, main
from twistlab.modelio import load_chain_spec
from twistlab.reporting import VerificationReport, count_failures
from twistlab.twisted import q_moment, q_moment_oracle

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
q_moment_vs_derivative_oracle_k1,exact,1.48490566038,1.48490566038,0,0,2.22044604925e-16,1,0.000
q_moment_vs_derivative_oracle_k2,exact,2.9420061227,2.9420061227,0,0,8.881784197e-16,1,0.000
q_moment_vs_derivative_oracle_k3,exact,10.4521418672,10.4521418672,0,0,5.3290705182e-15,1,0.000
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


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.yaml"
    path.write_text(CHAIN)
    return str(path)


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


def test_path_walks_are_bounded(tmp_path, monkeypatch, capsys):
    from twistlab import paths
    from twistlab.chain import NumericalError, build_dual
    from twistlab.functionals import ProductField
    from twistlab.modelio import load_chain_spec

    path = tmp_path / "slow.yaml"
    path.write_text(SLOW_KILL)
    dp = build_dual(load_chain_spec(str(path)))
    monkeypatch.setattr(paths, "MAX_JUMPS", 50)
    with pytest.raises(NumericalError):
        paths.occupation_batch(dp, 0, 200, seed=1)
    with pytest.raises(NumericalError):
        paths.bridge_values(dp, 0, 1, ProductField(), 200, seed=1)
    assert main(["verify-iso", "--input", str(path), "--samples", "200"]) == 3
    assert "did not terminate" in capsys.readouterr().err


def test_over_budget_walk_is_refused_before_drawing(tmp_path, monkeypatch, capsys):
    from twistlab import harness, paths
    from twistlab.chain import NumericalError

    draws = []
    real = harness.sample_twisted_batch
    monkeypatch.setattr(harness, "sample_twisted_batch", lambda *a, **k: draws.append(a) or real(*a, **k))
    path = tmp_path / "near.yaml"
    path.write_text(NEAR_STOCHASTIC)
    started = time.perf_counter()
    assert main(["verify-iso", "--input", str(path), "--samples", "100000"]) == 3
    assert time.perf_counter() - started < 5.0
    assert "did not terminate: 1e+06 expected sojourns" in capsys.readouterr().err
    # every start expects at least one sojourn, so a bound of 1 refuses every walk
    monkeypatch.setattr(paths, "MAX_JUMPS", 1)
    with pytest.raises(NumericalError, match="expected sojourns"):
        harness.example_suite(3, count=1000)
    assert draws == []  # neither suite drew its twisted sample


def test_walk_within_budget_still_stops_at_the_bound(tmp_path, monkeypatch):
    # 1000 expected sojourns pass the up-front check at a bound of 2000, and
    # about 13% of paths outlive it, so the bound in the walk itself raises
    from twistlab import paths
    from twistlab.chain import NumericalError, build_dual
    from twistlab.modelio import load_chain_spec

    path = tmp_path / "slow.yaml"
    path.write_text(SLOW_KILL)
    dp = build_dual(load_chain_spec(str(path)))
    monkeypatch.setattr(paths, "MAX_JUMPS", 2000)
    with pytest.raises(NumericalError, match="^path did not terminate; jump matrix"):
        paths.occupation_batch(dp, 0, 200, seed=1)


def test_mass_gap_prints_value(tmp_path, capsys):
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STATE)
    code = main(["mass-gap", "--input", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1.0"


def test_mgf_and_trace_checks(chain_file, tmp_path, capsys):
    assert main(["mgf-check", "--input", chain_file, "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["trace-check", "--input", chain_file, "--seed", "3"]) == 0


def test_verify_iso_and_q(chain_file, capsys):
    assert main(["verify-iso", "--input", chain_file, "--seed", "2", "--samples", "30000"]) == 0
    assert main(["verify-q", "--input", chain_file, "--seed", "2", "--samples", "30000"]) == 0


def test_det2_check(capsys):
    assert main(["det2-check", "--dim", "6", "--seed", "7", "--samples", "50000"]) == 0


def test_det2_out_of_float_range_exits_three(capsys):
    # the skew operator's det2 grows like a power of its eigenvalues of order
    # sqrt(dim) and overflows at dim 700
    assert main(["det2-check", "--dim", "700", "--seed", "1", "--samples", "100"]) == 3
    assert "renormalised determinant leaves float range" in capsys.readouterr().err


def test_circle_and_levy_checks(tmp_path, capsys):
    circle = tmp_path / "circle.yaml"
    circle.write_text("epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n")
    assert main(["circle-check", "--input", str(circle), "--k-max", "128"]) == 0
    # finitely many drift frequencies give a finite square sum, so no truncation may fail
    assert main(["circle-check", "--input", str(circle), "--k-max", "4"]) == 0
    far = tmp_path / "far.yaml"
    far.write_text("epsilon: 1.0\nb_hat:\n  - [60, 0.5, 0.0]\n")
    assert main(["circle-check", "--input", str(far), "--k-max", "64"]) == 0
    k = np.arange(1.0, 201.0)
    good = tmp_path / "levy.yaml"
    good.write_text(
        "a: [" + ", ".join(str(v) for v in k**2) + "]\nb: [" + ", ".join(str(v) for v in k) + "]\n"
    )
    assert main(["levy-check", "--input", str(good)]) == 0
    bad = tmp_path / "levy_bad.yaml"
    bad.write_text(
        "a: [" + ", ".join(str(v) for v in k) + "]\nb: [" + ", ".join(str(v) for v in k) + "]\n"
    )
    assert main(["levy-check", "--input", str(bad)]) == 0  # the sum is recorded; no verdict


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("states: 2\nq: [1.0]\npi: [[0,0],[0,0]]\nmu: [1, 0]\n")
    assert main(["mass-gap", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"states: 2\nq: [1.0,\x01 1.0]\n", "line 2: unacceptable character #x0001"),
        (b"states: 2\nq: [1.0, \xff]\n", "line 2: not UTF-8 text: byte 0xff"),
        (b"states: 2.5\nq: [1.0, 1.0]\npi: [[0, 0], [0, 0]]\nmu: [1.0, 0.0]\n", "line 1: states must be an integer, got '2.5'"),
        (None, "No such file or directory"),
        # a valid spec whose chain cannot reach state 1 from supp(mu)
        (b"states: 2\nq: [1.0, 1.0]\npi: [[0, 0], [0.5, 0]]\nmu: [1.0, 0.0]\n", "reference measure vanishes at states [1]"),
        # rows within the row-sum and reach checks, spectral radius 1 - 7.5e-13
        (
            b"states: 2\nq: [1.0, 1.0]\npi: [[0.5, 0.5000000000005], [0.5, 0.499999999998]]\nmu: [1.0, 0.0]\n",
            "line 1: spectral radius of pi is 0.999999999999; must be < 1",
        ),
    ],
    ids=["control-character", "not-utf8", "fractional-states", "missing-file", "mu-misses-a-state", "radius-at-bound"],
)
def test_unreadable_inputs_exit_two(content, message, tmp_path, capsys):
    path = tmp_path / "chain.yaml"
    if content is not None:
        path.write_bytes(content)
    assert main(["mass-gap", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_deeply_nested_input_exits_two_under_either_loader(tmp_path, monkeypatch, capsys):
    from twistlab import modelio

    path = tmp_path / "chain.yaml"
    path.write_text("states: 1\nq: " + "[" * 600 + "1.0" + "]" * 600 + "\npi: [[0.0]]\nmu: [1.0]\n")
    for loader, message in ((modelio.LOADER, "line 2: q entry must be a scalar"), (yaml.BaseLoader, "nested too deeply")):
        monkeypatch.setattr(modelio, "LOADER", loader)
        assert main(["mass-gap", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1, err


def test_unwritable_report_path_exits_two(tmp_path, capsys):
    path = tmp_path / "chain.yaml"
    path.write_text(CHAIN)
    out = tmp_path / "nodir" / "x.csv"
    assert main(["mgf-check", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}: No such file or directory" in err and len(err.strip().splitlines()) == 1


def test_invalid_flags_exit_two(tmp_path):
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STATE)
    assert main(["mass-gap", "--input", str(path), "--seed", "0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["circle-check", "--input", "{circle}", "--k-max", "1"], "truncation K=1 is below the drift bandwidth 3"),
        (["example-chain", "--n", "0"], "--n must be at least 1"),
        (["det2-check", "--dim", "0"], "--dim must be at least 1"),
    ],
    ids=["k-max-below-bandwidth", "n-zero", "dim-zero"],
)
def test_out_of_range_integer_flags_exit_two(argv, message, tmp_path, capsys):
    circle = tmp_path / "circle.yaml"
    circle.write_text("epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n  - [3, 0.1, 0.0]\n")
    assert main([a.format(circle=circle) for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mass-gap", "--input", "{infinite}"], "line 2: q entry must be finite, got 'inf'"),
        (["circle-check", "--input", "{huge}"], "line 4: frequency 100000000000000000000 is outside ±(2**63 - 1)"),
    ],
    ids=["input-inf", "frequency-beyond-int64"],
)
def test_non_finite_or_negative_values_exit_two(argv, message, tmp_path, capsys):
    infinite = tmp_path / "infinite.yaml"
    infinite.write_text(CHAIN.replace("q: [1.0, 1.0, 1.0]", "q: [1.0, inf, 1.0]"))
    huge = tmp_path / "huge.yaml"
    huge.write_text("epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n  - [1e20, 0.5, 0.0]\n")
    assert main([a.format(infinite=infinite, huge=huge) for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def _uniform_chain(n):
    rows = "\n".join("  - [" + ", ".join("0.0" if i == j else "0.1" for j in range(n)) + "]" for i in range(n))
    return f"states: {n}\nq: [{', '.join(['1.0'] * n)}]\npi:\n{rows}\nmu: [{', '.join([repr(1 / n)] * n)}]\n"


def test_verify_q_rejects_chains_beyond_the_sweep_limit(tmp_path, monkeypatch, capsys):
    from twistlab import harness

    six = tmp_path / "six.yaml"
    six.write_text(_uniform_chain(6))
    out = tmp_path / "six.csv"
    assert main(["verify-q", "--input", str(six), "--samples", "2000", "--out", str(out)]) == 0
    assert "cm_full_sweep_clean,exact,0," in out.read_text()
    capsys.readouterr()
    seven = tmp_path / "seven.yaml"
    seven.write_text(_uniform_chain(7))
    monkeypatch.setattr(harness, "sample_twisted_batch", None)  # nothing may be sampled
    assert main(["verify-q", "--input", str(seven), "--samples", "2000"]) == 2
    err = capsys.readouterr().err
    assert "at most 6 states" in err and len(err.strip().splitlines()) == 1


def test_trace_check_rejects_a_one_state_chain(tmp_path, capsys):
    one = tmp_path / "one.yaml"
    one.write_text(ONE_STATE)
    assert main(["trace-check", "--input", str(one)]) == 2
    err = capsys.readouterr().err
    assert "at least 2 states" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mass-gap", "--input", "{one}", "--samples", "10"],
        ["levy-check", "--input", "{levy}", "--seed", "3"],
        ["example-chain", "--tol", "1e-9"],
        # no command has a tolerance flag: every row fixes its own bound
        ["verify-iso", "--input", "{one}", "--tol", "1e-9"],
        ["trace-check", "--input", "{one}", "--tol", "1e-9"],
        ["det2-check", "--tol", "1e-9"],
        ["circle-check", "--input", "{circle}", "--tol", "1e-9"],
    ],
    ids=[
        "mass-gap-samples",
        "levy-check-seed",
        "example-chain-tol",
        "verify-iso-tol",
        "trace-check-tol",
        "det2-check-tol",
        "circle-check-tol",
    ],
)
def test_commands_reject_flags_they_do_not_read(argv, tmp_path, capsys):
    one = tmp_path / "one.yaml"
    one.write_text(ONE_STATE)
    levy = tmp_path / "levy.yaml"
    levy.write_text("a: [1.0, 4.0, 9.0]\nb: [1.0, 2.0, 3.0]\n")
    circle = tmp_path / "circle.yaml"
    circle.write_text(PIN_CIRCLE)
    with pytest.raises(SystemExit) as exc:
        main([a.format(one=one, levy=levy, circle=circle) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    from twistlab import cli

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


def test_a_named_command_builds_one_sub_parser(tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STATE)
    assert main(["mass-gap", "--input", str(path)]) == 0
    assert built == ["mass-gap"]
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built[1:] == list(COMMANDS)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, text",
    [
        (["levy-check", "--input", "{path}"], "a: [1e-300]\nb: [1e300]\n"),
        (["circle-check", "--k-max", "4", "--input", "{path}"], "epsilon: 1e300\nb_hat: [[1, 1e300, 0]]\n"),
    ],
    ids=["levy-sum-overflows", "circle-sums-nan"],
)
def test_rows_that_are_not_finite_exit_three_without_a_report(argv, text, tmp_path, capsys):
    path, out = tmp_path / "input.yaml", tmp_path / "out.csv"
    path.write_text(text)
    assert main([a.format(path=path) for a in argv] + ["--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("numerical failure: row ")


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


def test_numerical_failure_exit_three(tmp_path, monkeypatch, capsys):
    from twistlab import cli
    from twistlab.chain import NumericalError

    def boom(dp, seed=0):
        raise NumericalError("synthetic singularity")

    monkeypatch.setattr(cli, "mgf_suite", boom)
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STATE)
    assert main(["mgf-check", "--input", str(path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_linalg_failure_exit_three_though_it_is_a_value_error(tmp_path, monkeypatch, capsys):
    from twistlab import cli

    def boom(dp, seed=0):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "mgf_suite", boom)
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STATE)
    assert issubclass(np.linalg.LinAlgError, ValueError)
    assert main(["mgf-check", "--input", str(path)]) == 3
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, line",
    [
        (
            # numpy's message for circle-check --k-max 1000000, raised here without allocating
            MemoryError("Unable to allocate 29.1 TiB for an array with shape (4000004000001,) and data type float64"),
            "out of memory: Unable to allocate 29.1 TiB for an array with shape (4000004000001,) and data type float64",
        ),
        (MemoryError(), "out of memory: allocation failed"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_three_with_one_line(exc, line, tmp_path, monkeypatch, capsys):
    from twistlab import cli

    def boom(model, K):
        raise exc

    monkeypatch.setattr(cli, "circle_suite", boom)
    path = tmp_path / "circle.yaml"
    path.write_text("epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n")
    assert main(["circle-check", "--input", str(path), "--k-max", "1000000"]) == 3
    assert capsys.readouterr().err == f"numerical failure: {line}\n"


def test_failure_count_capped():
    rows = [
        VerificationReport(
            name=f"r{i}", mode="exact", lhs=1.0, rhs=0.0, se_lhs=0, se_rhs=0, z=1.0, passed=False
        )
        for i in range(300)
    ]
    assert count_failures(rows) == 125
