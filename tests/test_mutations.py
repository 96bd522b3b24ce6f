"""Mutation table: each exact row of every CLI suite fails under some wrong `src/` function.

This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11, 1978).  An entry of ``MUTATIONS`` patches one function with a wrong version built
from the real one, and names the rows it must fail; ``*`` in a name matches any run of
characters.  Each suite runs clean once on its fixed input in ``SUITES``.  Under a mutation only
the suites that write its rows run again, since a wrong function need not take every call of the
others.  A new exact row lands with an entry here, or is an info row in ``INFO_ROWS`` with the
reason it gives no verdict.  Monte Carlo rows stay outside until their mutations are checked at
more than one seed.
"""

import functools
import math
import re

import numpy as np
import pytest

from twistlab import chain, cli, harness, hilbert, twisted
from twistlab.chain import build_dual, random_chain
from twistlab.hilbert import LevyModel, circle_model
from twistlab.seeding import rng_stream


@functools.cache
def _chain(n, seed):
    return build_dual(random_chain(n, rng_stream(seed, "harness-tests")))


SUITES = {  # one fixed small input per CLI command
    "verify-iso": lambda: harness.iso_suite(_chain(4, 53), count=2000, seed=3),  # x = 1, y = 2
    "verify-q": lambda: harness.q_suite(_chain(4, 51), count=1000, seed=13),
    "mass-gap": lambda: harness.mass_gap_suite(_chain(4, 51), seed=11),
    "mgf-check": lambda: harness.mgf_suite(_chain(4, 51), seed=9),
    "example-chain": lambda: harness.example_suite(3, count=2000, seed=1),
    "trace-check": lambda: [harness.verify_trace(_chain(8, 53), [0, 2, 3, 5, 7])],  # a `trace_suite` row
    "det2-check": lambda: hilbert.det2_suite(6, count=2000, seed=1),
    "circle-check": lambda: hilbert.circle_suite(circle_model(1.0, {1: 0.4 + 0.1j, 2: 0.1}), K=512),
    "levy-check": lambda: hilbert.levy_suite(LevyModel(a=np.arange(1.0, 9.0) ** 2, b=np.arange(1.0, 9.0))),
}

INFO_ROWS = {
    "mass_gap": "the gap itself: energy_lower_bound_margin and the example's closed form judge it",
    "circle_hs_partial_sum": "a finite partial sum, whether or not the series converges",
    "levy_partial_sum": "a finite partial sum, whether or not the series converges",
}


def _rate(dp, chi):
    return dp.q if chi is None else dp.q + chi


def _start_rate(real):  # the holding rate of x where that of y belongs
    return lambda dp, x, y, chi=None: real(dp, x, y, chi) * _rate(dp, chi)[y] / _rate(dp, chi)[x]


def _first_visit_dropped(real):  # the visit at the start left uncounted
    return lambda dp, x, y, chi=None: real(dp, x, y, chi) - (x == y) / (_rate(dp, chi)[y] * dp.m[y])


def _one_nan(real):
    def wrong(dp, grid, shifts):
        phi = real(dp, grid, shifts)
        phi[len(grid) // 2, -1] = np.nan
        return phi

    return wrong


def _drop_last(real):  # the minor off the largest subset zeroed, as slogdet gives a zero determinant
    def wrong(dp, states):
        member, signs, logs = real(dp, states)
        signs[-1], logs[-1] = 0.0, -np.inf
        return member, signs, logs

    return wrong


# name: (module, attribute, wrong version built from the real one, rows it fails[, check of the mutated rows])
MUTATIONS = {
    "start-rate": (harness, "_path_green", _start_rate, "bridge_f1_exact[*] bridge_exp_exact[*]"),
    "first-visit-dropped": (
        harness, "_path_green", _first_visit_dropped,
        "occupation_f1_exact[*] occupation_exp_exact[*] "
        "example_n*_occupation_f1_exact example_n*_occupation_exp_exact"),
    "green-damped-twice": (
        harness, "green", lambda real: lambda dp, chi=None: real(dp, None if chi is None else 2.0 * chi),
        "bridge_exp_exact[*] occupation_exp_exact[*] example_n*_occupation_exp_exact"),
    "green-blind-to-chi": (harness, "green", lambda real: lambda dp, chi=None: real(dp), "logdet_derivative_vs_trace"),
    "green-damping-negated": (  # (-L - M_chi)^{-1}
        harness, "green", lambda real: lambda dp, chi=None: real(dp) if chi is None
        else np.linalg.inv(-dp.L - np.diag(chi)) / dp.m, "green_monotone_in_chi"),
    "mgf-on-s-times-m": (  # det(-L) / det(-L + M_{s m}): the pairing's weight counted twice
        harness, "mgf", lambda real: lambda dp, s: real(dp, s * dp.m), "logdet_derivative_vs_trace"),
    "mgf-at-2s": (
        harness, "mgf", lambda real: lambda dp, s: real(dp, None if s is None else 2.0 * s),
        "example_n*_mgf_factorisation"),
    "gap-doubled": (
        harness, "mass_gap", lambda real: lambda dp: 2.0 * real(dp),
        "energy_lower_bound_margin example_n*_mass_gap_vs_closed_form"),
    "gap-from-L": (  # the least real eigenvalue of -L, not of the symmetrised -A
        harness, "mass_gap", lambda real: lambda dp: float(np.linalg.eigvals(-dp.L).real.min()),
        "example_n*_mass_gap_vs_closed_form"),
    "trace-without-schur": (  # L_T = L_YY, as if the excursions off Y were dropped
        harness, "trace_chain",
        lambda real: lambda dp, keep: chain.dual_pair_from_generator(dp.L[np.ix_(keep, keep)], dp.m[keep]),
        "trace_consistency[|Y|=*]", lambda rows: rows["trace_consistency[|Y|=5]"].z > 1e-6),
    "determinant-for-permanent": (
        twisted, "permanent", lambda real: lambda mat: float(np.linalg.det(mat)),
        "q_moment_vs_derivative_oracle_k2 q_moment_vs_derivative_oracle_k3",
        lambda rows: rows["q_moment_vs_derivative_oracle_k1"].passed),  # one point: det and per agree
    "dropped-minor": (
        twisted, "_principal_minors", _drop_last, "cm_full_sweep_clean q_moment_vs_derivative_oracle_k*"),
    "nan-on-sweep-grid": (
        twisted, "_cm_phi", _one_nan, "cm_full_sweep_clean", lambda rows: rows["cm_full_sweep_clean"].lhs > 0),
    "det2-without-exp": (  # det(I + T)
        hilbert, "det2", lambda real: lambda t: real(t) * math.exp(np.trace(t)), "det2_vs_det_exp_trace"),
    "det2-squared": (
        hilbert, "det2", lambda real: lambda t: real(t) ** 2, "det2_vs_det_exp_trace det2_skew_vs_sqrt_gram"),
    "basis-scale": (  # as if the 1/sqrt(2) of the real basis were dropped
        hilbert, "circle_B_matrix", lambda real: lambda model, K: np.sqrt(2.0) * real(model, K),
        "circle_frobenius_vs_frequency_sum"),
    "eta-scale": (  # evaluation elements with sqrt(1/(k^2 + eps)) in place of sqrt(2/(k^2 + eps))
        hilbert, "_eta_vector", lambda real: lambda model, K, x: real(model, K, x) / np.sqrt(2.0),
        "circle_kernel_vs_closed_form"),
}


def _named(rows, patterns):
    regexes = [re.compile(".*".join(map(re.escape, p.split("*")))) for p in patterns.split()]
    return [r for r in rows if any(rx.fullmatch(r.name) for rx in regexes)]


@functools.cache
def _clean(suite):
    return SUITES[suite]()


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_mutation_fails_its_rows(name, monkeypatch):
    module, attr, wrong, patterns, *check = MUTATIONS[name]
    suites = [s for s in SUITES if _named(_clean(s), patterns)]
    clean = _named([r for s in suites for r in _clean(s)], patterns)
    assert all(_named(clean, p) for p in patterns.split()) and all(r.passed for r in clean)
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    rows = [r for s in suites for r in SUITES[s]()]
    assert [r.name for r in _named(rows, patterns) if not r.passed] == [r.name for r in clean]
    assert all(c({r.name: r for r in rows}) for c in check)


def test_every_exact_row_has_a_mutation_and_every_info_row_a_reason():
    assert SUITES.keys() == cli.COMMANDS.keys()
    rows = [r for s in SUITES for r in _clean(s)]
    named = {r.name for r in _named(rows, " ".join(entry[3] for entry in MUTATIONS.values()))}
    assert [r.name for r in rows if r.mode == "exact" and r.name not in named] == []
    assert {r.name for r in rows if r.mode == "info"} == INFO_ROWS.keys()


def test_the_schur_mutation_moves_phi_not_only_the_potential():
    dp, keep = _chain(8, 53), [0, 2, 3, 5, 7]
    s = np.zeros(dp.n)
    s[keep] = 1.0 / len(keep)
    restricted = MUTATIONS["trace-without-schur"][2](chain.trace_chain)(dp, keep)
    assert abs(twisted.mgf(restricted, s[keep]) - twisted.mgf(dp, s)) > 1e-6


def test_the_dropped_minor_moves_the_sweep_grid(monkeypatch):
    dp = build_dual(random_chain(3, rng_stream(38, "twisted-tests")))
    counts, grid = twisted._cm_differences(3)[0], twisted.cm_grid(3)
    phi = [[twisted.mgf(dp, g + 1e-2 * c) for c in counts] for g in grid]
    monkeypatch.setattr(twisted, "_principal_minors", _drop_last(twisted._principal_minors))
    assert not np.allclose(twisted._cm_phi(dp, grid, 1e-2 * counts), phi, rtol=1e-13, atol=0)
