"""Killed continuous-time chain simulation, occupation fields and bridges.

A path from x holds at each state for an exponential time with that
state's rate, then jumps along a row of the jump matrix or is killed with
the row's deficit; killing is almost sure.  One stepping kernel advances a
batch of paths in lockstep and hands every sojourn to its consumer: a
single path is a batch of one, occupation fields scatter-add holding times
divided by the reference measure, and the bridge accumulator realises the
local-time-weighted path measure: along each path from x, every stay at y
of length tau contributes ``(1/m_y) * int_0^tau F(field + u e_y / m_y) du``
with ``field`` the running occupation field (plus an optional per-path
offset).  A functional that knows this integral in closed form provides
``sojourn_integral(field, y, tau, m_y)``; anything else goes through
Gauss-Legendre quadrature with node doubling.  Every walk is bounded by
``MAX_JUMPS`` sojourns and raises `NumericalError` beyond it.

Replication is deterministic: batches have a fixed size and every batch
draws from its own counter-based stream, so identical (seed, count) give
bit-identical results and replicas may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import DualPair, NumericalError
from .seeding import rng_stream

__all__ = [
    "PathRecord",
    "bridge_estimate",
    "bridge_values",
    "occupation_batch",
    "sample_path",
]

BATCH = 1 << 15  # fixed so results depend only on (seed, count)
MAX_JUMPS = 1_000_000  # sojourns per path before a walk gives up


@dataclass(frozen=True)
class PathRecord:
    """Visited states of a killed path with their holding durations."""

    states: np.ndarray
    durations: np.ndarray


def _walk(dp: DualPair, start: int, b: int, rng):
    """Step ``b`` killed paths from ``start`` in lockstep until all are killed.

    Yields ``(rows, states, taus)`` per step: the indices of the live
    paths, their current states and the holding times just drawn.  Each
    step draws the holds of the live paths, then one uniform per live path
    for the jump; a path whose uniform passes its row's total is killed.
    """
    cum = np.cumsum(dp.pi, axis=1)
    rows = np.arange(b)
    states = np.full(b, start, dtype=int)
    for _ in range(MAX_JUMPS):
        if rows.size == 0:
            return
        taus = rng.exponential(1.0 / dp.q[states])
        yield rows, states, taus
        nxt = (rng.random(rows.size)[:, None] >= cum[states]).sum(axis=1)
        live = nxt < dp.n
        rows, states = rows[live], nxt[live]
    if rows.size:
        raise NumericalError("path did not terminate; jump matrix too close to stochastic")


def _batches(count: int, seed: int, stream: str):
    """(offset, size, generator) per fixed-size batch, each on its own stream."""
    for idx, lo in enumerate(range(0, count, BATCH)):
        yield lo, min(BATCH, count - lo), rng_stream(seed, stream, idx)


def sample_path(dp: DualPair, start: int, seed: int) -> PathRecord:
    """Simulate one killed path from ``start``; deterministic given seed."""
    if not 0 <= int(start) < dp.n:
        raise ValueError(f"start state {start} out of range")
    steps = _walk(dp, int(start), 1, rng_stream(seed, "single-path"))
    states, durations = zip(*((s[0], tau[0]) for _, s, tau in steps))
    return PathRecord(
        states=np.array(states, dtype=int),
        durations=np.array(durations, dtype=float),
    )


def occupation_batch(dp: DualPair, start: int, count: int, seed: int):
    """Occupation fields of ``count`` paths from ``start``: (count, n) array, lifetimes."""
    fields = np.zeros((count, dp.n))
    lives = np.zeros(count)
    for lo, b, rng in _batches(count, seed, "occupation-batch"):
        times, life = fields[lo : lo + b], lives[lo : lo + b]
        for rows, states, taus in _walk(dp, int(start), b, rng):
            times[rows, states] += taus
            life[rows] += taus
    fields /= dp.m
    return fields, lives


@lru_cache(maxsize=None)
def _leggauss(k: int):
    return np.polynomial.legendre.leggauss(k)


def _sojourn_quadrature(functional, fields, taus, y, m_y, tol, max_nodes):
    """(1/m_y) * int_0^tau F(field + u e_y / m_y) du per row, by node doubling."""
    k = 8
    prev = None
    while True:
        nodes, weights = _leggauss(k)
        u = (nodes[None, :] + 1.0) * (taus[:, None] / 2.0)
        pts = np.repeat(fields[:, None, :], k, axis=1)
        pts[:, :, y] += u / m_y
        vals = np.asarray(functional(pts), dtype=float)
        est = (vals @ weights) * (taus / 2.0) / m_y
        if prev is not None:
            err = float(np.max(np.abs(est - prev) / np.maximum(1e-30, np.abs(est))))
            if err < tol or 2 * k > max_nodes:
                return est
        prev = est
        k *= 2


def bridge_values(
    dp: DualPair,
    x: int,
    y: int,
    functional,
    count: int,
    seed: int,
    offsets=None,
) -> np.ndarray:
    """Per-path bridge accumulations for ``count`` paths from x weighted at y.

    ``offsets`` (count, n), when given, shifts the field seen by the
    functional path by path; the sample mean is then an unbiased estimator
    of the bridge integral of ``F(l + offset)``.  Quadrature, where used,
    stops at relative change 1e-8 or 64 nodes.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (0 <= int(x) < dp.n and 0 <= int(y) < dp.n):
        raise ValueError("states out of range")
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (count, dp.n):
            raise ValueError(f"offsets must be (count, {dp.n})")
    out = np.zeros(count)
    y = int(y)
    m_y = dp.m[y]
    closed_form = getattr(functional, "sojourn_integral", None)
    for lo, b, rng in _batches(count, seed, "bridge-batch"):
        field = np.zeros((b, dp.n)) if offsets is None else offsets[lo : lo + b].copy()
        acc = out[lo : lo + b]
        for rows, states, taus in _walk(dp, int(x), b, rng):
            here = states == y
            if here.any():
                at, stay = rows[here], taus[here]
                if closed_form is not None:
                    acc[at] += closed_form(field[at], y, stay, m_y)
                else:
                    acc[at] += _sojourn_quadrature(functional, field[at], stay, y, m_y, 1e-8, 64)
            field[rows, states] += taus / dp.m[states]
    return out


def bridge_estimate(dp: DualPair, x: int, y: int, functional, count: int, seed: int):
    """Unbiased bridge-measure estimate of F and its standard error."""
    vals = bridge_values(dp, x, y, functional, count, seed)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    return mean, se
